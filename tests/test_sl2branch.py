import contextlib
import io
import itertools

import numpy as np
import pytest

from sl2bounds import (
    BranchingError, Sl2Embedding, Weight, build, full_weight_values, g0,
    invariant_dim, principal_embedding, root_embedding, sl2_decompose,
    weyl_dimension,
)
from sl2bounds.rootsys import RootSystemError


@pytest.fixture(scope="module")
def g2():
    return build([("G", 2)])


@pytest.fixture(scope="module")
def a2():
    return build([("A", 2)])


def test_principal_marks(g2, a2):
    assert principal_embedding(g2).marks == (2, 2)
    assert principal_embedding(a2).marks == (2, 2)
    assert principal_embedding(build([("A", 1)])).marks == (2,)


def test_root_embedding_a2(a2):
    assert root_embedding(a2, (1, 0)).marks == (2, -1)
    assert root_embedding(a2, (1, 1)).marks == (1, 1)


def test_root_embedding_g2_highest_root(g2):
    highest = max(g2.positive_roots, key=sum)
    emb = root_embedding(g2, highest)
    dec = sl2_decompose(g2, Weight((0, 1)), emb)
    assert dec.dimension() == 14


def test_root_embedding_rejects_nonroot(a2):
    from sl2bounds.rootsys import RootSystemError
    with pytest.raises(RootSystemError):
        root_embedding(a2, (2, 0))


def test_decompose_g2_fundamental_principal(g2):
    dec = sl2_decompose(g2, Weight((1, 0)), principal_embedding(g2))
    assert dec.mults == {6: 1}  # irreducible on restriction


def test_decompose_a2_standard_root_sl2(a2):
    dec = sl2_decompose(a2, Weight((1, 0)), root_embedding(a2, (1, 0)))
    assert dec.mults == {1: 1, 0: 1}


def test_decompose_trivial(g2):
    dec = sl2_decompose(g2, Weight((0, 0)), principal_embedding(g2))
    assert dec.mults == {0: 1}


def test_invariant_dim_examples(g2):
    emb = principal_embedding(g2)
    assert invariant_dim(g2, Weight((0, 0)), emb) == 1
    assert invariant_dim(g2, Weight((1, 0)), emb) == 0
    assert invariant_dim(g2, Weight((19, 19)), emb) == 123


def test_g0_examples(g2):
    emb = principal_embedding(g2)
    assert g0(g2, Weight((1, 0)), emb) == 7
    assert g0(g2, Weight((0, 0)), emb) == 1
    assert g0(g2, Weight((1, 1)), emb) == 5


def test_dimension_conservation(g2, a2):
    cases = []
    for lam in itertools.product(range(5), repeat=2):
        cases.append((g2, Weight(lam), principal_embedding(g2)))
        cases.append((a2, Weight(lam), root_embedding(a2, (1, 1))))
    a3 = build([("A", 3)])
    b2 = build([("B", 2)])
    for lam in [(1, 0, 2), (2, 1, 0), (1, 1, 1)]:
        cases.append((a3, Weight(lam), principal_embedding(a3)))
    for lam in itertools.product(range(4), repeat=2):
        cases.append((b2, Weight(lam), principal_embedding(b2)))
    for rs, lam, emb in cases:
        dec = sl2_decompose(rs, lam, emb)
        assert dec.dimension() == weyl_dimension(rs, lam)


def test_value_symmetry(g2, a2):
    for rs, emb in [(g2, principal_embedding(g2)),
                    (g2, root_embedding(g2, (1, 0))),
                    (a2, root_embedding(a2, (1, 0)))]:
        for lam in itertools.product(range(4), repeat=2):
            N = full_weight_values(rs, Weight(lam), emb.marks)
            assert all(N.get(-j, 0) == n for j, n in N.items())


def test_invalid_marks_trip_certificate(a2):
    # (3, 0) gives integral weight values but is not an sl2 triple, so the
    # symmetry certificate must fire
    with pytest.raises(BranchingError):
        for lam in itertools.product(range(4), repeat=2):
            sl2_decompose(a2, Weight(lam), Sl2Embedding(marks=(3, 0)))


def test_cartan_helgason_parity_a2(a2):
    emb = principal_embedding(a2)
    for a, b in itertools.product(range(9), repeat=2):
        inv = invariant_dim(a2, Weight((a, b)), emb)
        assert (inv > 0) == (a % 2 == 0 and b % 2 == 0), (a, b, inv)


def test_root_sl2_has_invariants_in_both_fundamentals(a2):
    emb = root_embedding(a2, (1, 0))
    assert invariant_dim(a2, Weight((1, 0)), emb) > 0
    assert invariant_dim(a2, Weight((0, 1)), emb) > 0


def test_semigroup_monotonicity_g2(g2):
    # if L(mu) has an invariant, every sl2 type occurring in L(lambda)
    # also occurs in L(lambda + mu)
    emb = principal_embedding(g2)
    box = list(itertools.product(range(7), repeat=2))
    invariant_mus = [Weight(mu) for mu in box
                     if invariant_dim(g2, Weight(mu), emb) > 0]
    for lam in box:
        lam = Weight(lam)
        base = set(sl2_decompose(g2, lam, emb).mults)
        for mu in invariant_mus:
            bigger = set(sl2_decompose(g2, lam + mu, emb).mults)
            assert base <= bigger, (lam, mu)


def test_branch_command_restricts_once(monkeypatch):
    import sl2bounds
    from sl2bounds import character, cli, sl2branch
    real = character._weight_row
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for mod in (sl2bounds, character, sl2branch, cli):
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["branch", "G", "2", "1", "1"]) == 0
    assert len(calls) == 1


def test_decomposition_carries_histogram_invariants_and_g0(g2):
    emb = principal_embedding(g2)
    lam = Weight((1, 1))
    dec = sl2_decompose(g2, lam, emb)
    assert dec.weight_values == full_weight_values(g2, lam, emb.marks)
    assert dec.invariant_dim == invariant_dim(g2, lam, emb)
    assert dec.g0 == g0(g2, lam, emb)


def test_invariant_dim_runs_the_full_certificate(a2):
    # N is symmetric and V(0) comes out nonnegative, but V(1) is negative:
    # (2, 3) are not the marks of an sl2 triple.
    emb = Sl2Embedding(marks=(2, 3))
    with pytest.raises(BranchingError, match="V\\(1\\)"):
        invariant_dim(a2, Weight((2, 2)), emb)


@pytest.fixture
def restricted(monkeypatch):
    """The lambdas that sl2_decompose restricts, in order, by a spy on the
    _weight_row it calls."""
    from sl2bounds import sl2branch
    lams, real = [], sl2branch._weight_row
    monkeypatch.setattr(sl2branch, "_weight_row", lambda rs, lam, s:
                        lams.append(lam.coords) or real(rs, lam, s))
    return lams


def test_invariant_dim_then_g0_restricts_once(g2, restricted):
    # The per-sl2 record keeps the last certified decomposition: g0 after
    # invariant_dim of one lambda reads it, and another lambda in between
    # replaces it, so the first is restricted again.
    emb = principal_embedding(g2)
    lam, other = Weight((2, 2)), Weight((1, 0))
    # Tables 1 and 2 at (2, 2)
    assert (invariant_dim(g2, lam, emb), g0(g2, lam, emb)) == (1, 1)
    assert restricted == [(2, 2)]
    assert sl2_decompose(g2, lam, emb) is sl2_decompose(g2, lam, emb)
    assert restricted == [(2, 2)]
    invariant_dim(g2, other, emb)
    assert g0(g2, lam, emb) == 1
    assert restricted == [(2, 2), (1, 0), (2, 2)]
    # a second build of the same root system shares the record
    assert sl2_decompose(build([("G", 2)]), lam, emb) is \
        sl2_decompose(g2, lam, emb)
    assert restricted == [(2, 2), (1, 0), (2, 2)]


def test_conjugate_sl2_reuses_the_decomposition(answered):
    # alpha_1 is a long root of B4: its sl2 is conjugate to the highest
    # root's, shares its record, and reads the decomposition held there.
    rs = build([("B", 4)])
    lam = Weight((0, 1, 0, 1))
    highest = root_embedding(rs, (1, 2, 2, 2))
    simple = root_embedding(rs, (1, 0, 0, 0))
    assert simple.marks == (2, -1, 0, 0) != highest.marks
    dec = sl2_decompose(rs, lam, highest)
    assert sl2_decompose(rs, lam, simple) is dec
    assert answered == {"_by_cosets": 1}
    assert dec.weight_values == full_weight_values(rs, lam, simple.marks)


def test_failed_certificate_is_not_kept(a2, restricted):
    # The case of test_invariant_dim_runs_the_full_certificate raises on
    # every request, each one restricting and certifying anew, and a
    # valid lambda after it is answered as usual.
    from sl2bounds import character
    emb = Sl2Embedding(marks=(2, 3))
    for _ in range(2):
        with pytest.raises(BranchingError, match="V\\(1\\)"):
            invariant_dim(a2, Weight((2, 2)), emb)
    assert restricted == [(2, 2), (2, 2)]
    assert character._sl2(a2, (2, 3)).last is None
    assert invariant_dim(a2, Weight((0, 0)), emb) == 1
    with pytest.raises(BranchingError, match="V\\(1\\)"):
        g0(a2, Weight((2, 2)), emb)
    assert restricted == [(2, 2), (2, 2), (0, 0), (2, 2)]


def test_bad_requests_raise_on_a_warm_record(g2, restricted):
    emb = principal_embedding(g2)
    lam = Weight((2, 1))
    sl2_decompose(g2, lam, emb)
    with pytest.raises(RootSystemError, match="length 2"):
        sl2_decompose(g2, Weight((2, 1, 0)), emb)
    with pytest.raises(RootSystemError, match="dominant"):
        sl2_decompose(g2, Weight((2, -1)), emb)
    with pytest.raises(RootSystemError, match="marks must have length 2"):
        sl2_decompose(g2, lam, Sl2Embedding((2, 2, 2)))
    with pytest.raises(RootSystemError, match="marks must have length 2"):
        g0(g2, lam, Sl2Embedding((2,)))
    assert restricted == [(2, 1)]


def test_a_weight_not_dominant_is_refused_by_the_entry_called(g2):
    # The refusal names the public entry: sl2_decompose, the restriction
    # that invariant_dim and g0 read, or full_weight_values.
    lam, emb = Weight((-1, 0)), Sl2Embedding((2, 2))
    for entry in (sl2_decompose, invariant_dim, g0):
        with pytest.raises(RootSystemError,
                           match="^sl2_decompose expects a dominant weight$"):
            entry(g2, lam, emb)
    with pytest.raises(RootSystemError,
                       match="^full_weight_values expects a dominant weight$"):
        full_weight_values(g2, lam, emb.marks)


def test_a_shared_decomposition_cannot_be_changed(g2):
    emb = principal_embedding(g2)
    lam = Weight((2, 1))
    dec = sl2_decompose(g2, lam, emb)
    want = (dec.row.tolist(), dec.v_row.tolist(), dec.mults,
            dec.weight_values)
    for a in (dec.row, dec.v_row):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7
    dec.mults[0] = 99
    dec.weight_values.clear()
    again = sl2_decompose(g2, lam, emb)
    assert again is dec
    assert (again.row.tolist(), again.v_row.tolist(), again.mults,
            again.weight_values) == want


@pytest.mark.parametrize("lam_h,row,value", [
    (1, [1, 0, 1, 1], -2),      # too long: a value below -lambda(h)
    (2, [1, 0, 1], 2),          # too short: -lambda(h) is missing
    (2, [1, 1, 2, 0, 1], 1),    # asymmetric inside its span
], ids=["too-long", "too-short", "asymmetric"])
def test_row_certificate_names_the_asymmetric_value(monkeypatch, lam_h, row,
                                                    value):
    from sl2bounds import sl2branch
    monkeypatch.setattr(sl2branch, "_weight_row",
                        lambda *args: (lam_h, np.array(row, np.int64)))
    with pytest.raises(BranchingError,
                       match=f"not symmetric at {value} \\(marks \\(2, 2\\)"):
        sl2_decompose(build([("A", 2)]), Weight((1, 1)), Sl2Embedding((2, 2)))


def test_negative_multiplicity_where_the_histogram_is_zero():
    # (4, 0, 0) is no sl2 of B3: L(1, 0, 1) has N_2 = 20 and N_0 = 0, so
    # V(0) would have multiplicity -20.  Every V(k) is checked, not only
    # those with N_k != 0.
    rs = build([("B", 3)])
    with pytest.raises(BranchingError, match="V\\(0\\)"):
        sl2_decompose(rs, Weight((1, 0, 1)), Sl2Embedding(marks=(4, 0, 0)))


def test_principal_restriction_past_the_box_cap():
    # This E8 weight has far more weights than the character's weight cap
    # allows; the principal restriction never enumerates them.
    from sl2bounds import CharacterError, dominant_character
    e8 = build([("E", 8)])
    lam = Weight((3, 0, 0, 0, 0, 0, 0, 5))
    with pytest.raises(CharacterError, match="weight cap"):
        dominant_character(e8, lam)
    dec = sl2_decompose(e8, lam, principal_embedding(e8))
    assert dec.dimension() == weyl_dimension(e8, lam)


def test_non_integral_marks_and_roots_are_refused_not_truncated(g2):
    with pytest.raises(TypeError):
        Sl2Embedding(marks=(2.5, 2))
    with pytest.raises(TypeError):
        root_embedding(g2, (1.5, 0))
    with pytest.raises(TypeError):
        full_weight_values(g2, Weight((1, 0)), (2.5, 2))


_SEMIGROUP_BOXES = [("G", 2, 9), ("B", 2, 6), ("A", 3, 3), ("B", 3, 3),
                    ("C", 3, 3)]


@pytest.mark.parametrize("fam,rank,top", _SEMIGROUP_BOXES,
                         ids=[f"{f}{n}" for f, n, _ in _SEMIGROUP_BOXES])
def test_weights_with_invariants_form_a_semigroup(fam, rank, top):
    # The paper's prop_semigroup under the principal sl2 K: if L(lambda)^K
    # and L(mu)^K are nonzero, so is L(lambda + mu)^K, as the product of
    # two invariants in the domain of highest-weight vectors lies in
    # L(lambda + mu).  Checked on every pair of such weights in [0, top]^rank.
    rs = build([(fam, rank)])
    emb = principal_embedding(rs)
    invariant = {}

    def has(lam):
        if lam not in invariant:
            invariant[lam] = invariant_dim(rs, Weight(lam), emb) > 0
        return invariant[lam]

    box = [lam for lam in itertools.product(range(top + 1), repeat=rank)
           if has(lam)]
    pairs = itertools.combinations_with_replacement(box, 2)
    assert [(lam, mu) for lam, mu in pairs
            if not has(tuple(map(sum, zip(lam, mu))))] == []
