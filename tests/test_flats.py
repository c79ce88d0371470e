"""Family descriptors, level data, and explicit lattice construction."""

from collections import Counter
from itertools import combinations, product

import pytest

from chowlab import flats
from chowlab.charney import cd_direct, tangent_secant
from chowlab.errors import ResourceBoundError
from chowlab.exactalg import ONE, BiPoly, gauss_binomial
from chowlab.flats import FamilySpec, _rref_bases, _span, build_explicit, chains_above, explicit_size, level_size
from chowlab.ordercx import FVector
from chowlab.permstat import stats


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec.uniform(3, 0)
    with pytest.raises(ValueError):
        FamilySpec.uniform(3, 4)
    with pytest.raises(ValueError):
        FamilySpec("projective", 3, 2)
    with pytest.raises(ValueError, match="need 1 <= r <= n, got r=4, n=3"):
        FamilySpec.uniform(3, 2)._replace(r=4)


def test_values_are_immutable():
    lat = build_explicit(FamilySpec.uniform(4, 3))
    values = [
        (FamilySpec.vector(3, 2), "r"),
        (cd_direct(FamilySpec.vector(5, 5)), "signed"),
        (tangent_secant(4), "entries"),
        (FVector((6, 6)), "f"),
        (stats((3, 2, 1)), "maj"),
        (lat, "upper_covers"),
    ]
    for value, field in values:
        before = repr(getattr(value, field))
        with pytest.raises(AttributeError):
            setattr(value, field, ONE)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.note = "a new attribute"
        assert repr(getattr(value, field)) == before
    # the lattice's own containers cannot change either
    assert all(type(v) is tuple for v in (lat.labels, lat.ranks, lat.below, lat.upper_covers))
    assert all(type(b) is frozenset for b in lat.below) and all(type(u) is tuple for u in lat.upper_covers)
    assert lat.upper_covers[lat.bottom] == (1, 2, 3, 4)
    assert FVector((6, 6)) == FVector([6, 6]) and repr(FVector((6, 6))) == "FVector([6, 6])"


def test_level_sizes():
    assert level_size(FamilySpec.uniform(4, 3), 2) == BiPoly.const(6)
    assert level_size(FamilySpec.vector(4, 4), 2) == gauss_binomial(4, 2)
    for spec in (FamilySpec.uniform(5, 3), FamilySpec.vector(5, 3)):
        assert level_size(spec, 0) == BiPoly.const(1)
        assert level_size(spec, spec.r) == BiPoly.const(1)
    with pytest.raises(ValueError):
        level_size(FamilySpec.uniform(4, 3), 4)


def test_boolean_lattice():
    lat = build_explicit(FamilySpec.uniform(3, 3))
    assert len(lat) == 8
    assert lat.level_counts() == [1, 3, 3, 1]
    assert lat.count_maximal_chains() == 6


def test_truncated_uniform_lattice():
    lat = build_explicit(FamilySpec.uniform(4, 2))
    assert len(lat) == 6
    assert lat.level_counts() == [1, 4, 1]
    assert lat.count_maximal_chains() == 4


def test_subspace_lattices():
    lat = build_explicit(FamilySpec.vector(3, 3), p=2)
    assert lat.level_counts() == [1, 7, 7, 1]
    lat3 = build_explicit(FamilySpec.vector(3, 3), p=3)
    assert lat3.level_counts() == [1, 13, 13, 1]
    for p, n in ((2, 4), (3, 3)):
        lat = build_explicit(FamilySpec.vector(n, n), p=p)
        for i, count in enumerate(lat.level_counts()):
            assert count == gauss_binomial(n, i).eval(p, 1)


def test_gradedness_and_chain_product():
    for spec, p in (
        (FamilySpec.uniform(4, 3), None),
        (FamilySpec.uniform(5, 2), None),
        (FamilySpec.vector(3, 2), 2),
        (FamilySpec.vector(4, 3), 2),
    ):
        lat = build_explicit(spec, p)
        q_value = 1 if p is None else p
        # every maximal chain has length = lattice rank (gradedness)
        lengths = set()

        def walk(i, depth):
            ups = lat.upper_covers[i]
            if not ups:
                lengths.add(depth)
                return
            for j in ups:
                walk(j, depth + 1)

        walk(lat.bottom, 0)
        assert lengths == {spec.r}
        # chain count equals the product of per-level up-degrees
        product = 1
        for i in range(1, spec.r + 1):
            product *= chains_above(spec, i - 1, i).eval(q_value, 1)
        assert lat.count_maximal_chains() == product


def test_atom_join_meet_spot_check():
    lat = build_explicit(FamilySpec.uniform(4, 2))
    atoms = [i for i in range(len(lat)) if lat.ranks[i] == 1]
    for a in atoms:
        for b in atoms:
            if a == b:
                continue
            uppers = [j for j in range(len(lat)) if a in lat.below[j] and b in lat.below[j]]
            minimal = [j for j in uppers if not any(k in lat.below[j] for k in uppers)]
            assert len(minimal) == 1  # join exists and is unique


def test_resource_and_domain_errors():
    # small lattices at any n and p build: 47, 33 and 42 flats
    assert len(build_explicit(FamilySpec.uniform(9, 3))) == 47
    assert len(build_explicit(FamilySpec.vector(3, 2), p=5)) == 33
    assert len(build_explicit(FamilySpec.vector(4, 2), p=3)) == 42
    with pytest.raises(ValueError):
        build_explicit(FamilySpec.vector(3, 2))
    with pytest.raises(ValueError):
        build_explicit(FamilySpec.vector(3, 2), p=4)
    with pytest.raises(ResourceBoundError, match="uniform\\(9,9\\) has over 200 flats"):
        build_explicit(FamilySpec.uniform(9, 9))
    with pytest.raises(ResourceBoundError, match="vector\\(4,4\\) at p=3 has over 200 flats"):
        build_explicit(FamilySpec.vector(4, 4), p=3)
    with pytest.raises(ResourceBoundError, match="vector\\(4,2\\) at p=5 has over 200 points"):
        build_explicit(FamilySpec.vector(4, 2), p=5)


def test_size_bound_boundary():
    # 200 points, then 201; 200 flats (198 atoms, bottom and top), then 201
    assert explicit_size(FamilySpec.uniform(200, 1)) == (200, 2)
    assert len(build_explicit(FamilySpec.uniform(200, 1))) == 2
    with pytest.raises(ResourceBoundError, match="uniform\\(201,1\\) has over 200 points"):
        build_explicit(FamilySpec.uniform(201, 1))
    assert explicit_size(FamilySpec.uniform(198, 2)) == (198, 200)
    assert len(build_explicit(FamilySpec.uniform(198, 2))) == 200
    with pytest.raises(ResourceBoundError, match="uniform\\(199,2\\) has over 200 flats"):
        build_explicit(FamilySpec.uniform(199, 2))
    # the vector family: 128 points at p = 2, n = 7, and 256 at n = 8
    assert explicit_size(FamilySpec.vector(7, 2), 2) == (128, 129)
    with pytest.raises(ResourceBoundError, match="vector\\(8,1\\) at p=2 has over 200 points"):
        build_explicit(FamilySpec.vector(8, 1), p=2)


def test_size_is_the_built_lattice_size():
    for spec, p in ((FamilySpec.uniform(9, 3), None), (FamilySpec.vector(3, 3), 5), (FamilySpec.vector(2, 2), 7)):
        lat = build_explicit(spec, p)
        assert explicit_size(spec, p) == (len(lat.labels[lat.top]), len(lat))


def test_json_export():
    lat = build_explicit(FamilySpec.uniform(3, 2))
    data = lat.to_json()
    assert data["rank"] == 2
    assert sorted(map(tuple, data["elements"])) == [(), (1,), (1, 2, 3), (2,), (3,)]
    assert len(data["ranks"]) == len(data["elements"])
    for i, j in data["covers"]:
        assert data["ranks"][j] == data["ranks"][i] + 1


def test_large_prime_is_rejected_at_once():
    # trial division stops at the square root: about 46000 steps here, not 2^31
    with pytest.raises(ResourceBoundError, match="has over 200 points"):
        build_explicit(FamilySpec.vector(2, 2), p=2**31 - 1)


def _all_pairs_lattice(spec, p):
    """(labels, ranks, below, upper_covers) by the definition: the rank-k
    flats of rank below r in enumeration order, then the top; `below` by
    all-pairs label containment, and the upper covers of a flat the flats
    one rank up that contain it."""
    n, r = spec.n, spec.r
    if spec.kind == "uniform":
        levels = [[frozenset(s) for s in combinations(range(1, n + 1), k)] for k in range(r)]
        top = frozenset(range(1, n + 1))
    else:
        levels = [[_span(basis, n, p) for basis in _rref_bases(n, k, p)] for k in range(r)]
        top = frozenset(product(range(p), repeat=n))
    labels = [label for level in levels for label in level] + [top]
    ranks = [k for k, level in enumerate(levels) for _ in level] + [r]
    below = [frozenset(j for j, b in enumerate(labels) if j != i and b <= a) for i, a in enumerate(labels)]
    covers = [tuple(j for j, b in enumerate(below) if ranks[j] == ranks[i] + 1 and i in b) for i in range(len(labels))]
    return labels, ranks, below, covers


def test_level_table_matches_all_pairs_containment():
    cases = [(FamilySpec.uniform(n, r), None) for n in range(1, 8) for r in range(1, n + 1)]
    cases += [(FamilySpec.vector(n, r), p) for p, top in ((2, 4), (3, 3)) for n in range(1, top + 1)
              for r in range(1, n + 1)]
    cases += [(FamilySpec.uniform(9, 3), None), (FamilySpec.uniform(198, 2), None)]
    cases += [(FamilySpec.vector(3, 2), 5), (FamilySpec.vector(4, 2), 3)]
    for spec, p in cases:
        lat = build_explicit(spec, p)
        labels, ranks, below, covers = _all_pairs_lattice(spec, p)
        assert (list(lat.labels), list(lat.ranks)) == (labels, ranks), (spec, p)
        assert (list(lat.below), list(lat.upper_covers)) == (below, covers), (spec, p)
        # every vector flat of rank k is a k-dimensional subspace: p^k points
        assert spec.kind == "uniform" or all(len(a) == p**k for a, k in zip(labels[:-1], ranks)), (spec, p)


def test_each_rank_is_enumerated_once(monkeypatch):
    enumerated, sized = Counter(), []
    real_level, real_size = flats._level, flats.explicit_size
    monkeypatch.setattr(flats, "_level", lambda *key: enumerated.update([key]) or real_level(*key))
    monkeypatch.setattr(flats, "explicit_size", lambda *args: sized.append(args) or real_size(*args))
    flats._flats.cache_clear()
    built = [build_explicit(FamilySpec(kind, n, r), p) for kind, n, p in (("uniform", 7, None), ("vector", 4, 2))
             for _ in range(2) for r in range(1, n + 1)]
    assert enumerated == Counter([("uniform", 7, None, k) for k in range(7)] + [("vector", 4, 2, k) for k in range(4)])
    assert len(sized) == len(built) == 22  # every build still checks its size
    with pytest.raises(ResourceBoundError):
        build_explicit(FamilySpec.uniform(9, 9))
    # the lattices that share one table cannot change it
    for lat in built:
        for field in ("labels", "below", "upper_covers"):
            with pytest.raises(AttributeError):
                setattr(lat, field, ())
        assert all(type(v) is tuple for v in (lat.labels, lat.ranks, lat.below, lat.upper_covers))
        assert all(type(b) is frozenset for b in lat.below + lat.labels)
        assert all(type(u) is tuple for u in lat.upper_covers)
