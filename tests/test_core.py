import itertools

import pytest

from idemfree import (
    EmptyGeneratorSet,
    FiniteSemigroup,
    InvalidParameters,
    NotAssociative,
    NotClosed,
    cyclic_data,
    cyclic_group,
    cyclic_nil,
    format_cayley_table,
    generated_subsemigroup,
    group_nil_chain,
    idempotents,
    identity_element,
    is_commutative,
    is_nilsemigroup,
    monogenic,
    parse_cayley_table,
    unique_cycle_idempotent,
    validate,
    zero_element,
)
from idemfree.core import _idempotent_power
from oracles import (
    left_zero_semigroup,
    naive_generated_subsemigroup,
    naive_is_nilsemigroup,
    transformation_monogenic_table,
)


def test_validate_trivial_and_z2():
    assert validate(1, [[0]]).order == 1
    assert validate(2, [[0, 1], [1, 0]]).order == 2


def test_validate_rejects_non_associative_with_first_triple():
    with pytest.raises(NotAssociative) as err:
        validate(2, [[0, 1], [0, 0]])
    # brute force over all 8 triples puts the first violation at (1, 0, 1)
    assert err.value.triple == (1, 0, 1)


def _first_violation(rows):
    n = len(rows)
    for a, b, c in itertools.product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return a, b, c
    return None


def _scanned_violation(rows):
    try:
        FiniteSemigroup(rows)
    except NotAssociative as err:
        return err.triple
    return None


def test_associativity_scan_names_the_first_violating_triple(corpus_le4):
    # the row-pair scan must name the triple a plain loop over (a, b, c)
    # finds first, on random tables and on associative ones with one cell
    # changed, whose violations lie deeper in the order
    import random

    rng = random.Random(11)
    verdicts, firsts = set(), set()
    for n in range(1, 6):
        for _ in range(400):
            rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            want = _first_violation(rows)
            assert _scanned_violation(rows) == want
            verdicts.add(want is None)
    for S in corpus_le4:
        rows = [list(row) for row in S.table]
        a, b = rng.randrange(S.order), rng.randrange(S.order)
        rows[a][b] = rng.choice([v for v in S.elements if v != rows[a][b]] or [0])
        want = _first_violation(rows)
        assert _scanned_violation(rows) == want
        verdicts.add(want is None)
        if want is not None:
            firsts.add(want[0])
    # both verdicts occur, and violations start at every first element
    assert verdicts == {True, False} and firsts == {0, 1, 2, 3}


def test_validate_rejects_out_of_range_cell():
    with pytest.raises(NotClosed) as err:
        validate(2, [[0, 2], [0, 0]])
    assert err.value.cell == (0, 1)


def test_validate_rejects_order_mismatch_and_ragged_rows():
    with pytest.raises(InvalidParameters):
        validate(3, [[0, 1], [1, 0]])
    # the declared order is an integer: a string, bool or float is named as
    # such, never compared with the row count or read as 1
    for order in ("1", True, 1.0):
        with pytest.raises(InvalidParameters, match=rf"^order {order!r} is not an integer$"):
            validate(order, [[0]])
    with pytest.raises(InvalidParameters):
        FiniteSemigroup([[0, 1], [1]])
    with pytest.raises(InvalidParameters, match="^a semigroup needs at least one element$"):
        FiniteSemigroup([])


def test_rejects_non_integer_cells():
    with pytest.raises(InvalidParameters, match=r"table\[0\]\[0\] = 0.9"):
        FiniteSemigroup([[0.9]])
    with pytest.raises(InvalidParameters, match=r"table\[0\]\[0\] = '0'"):
        FiniteSemigroup(["0"])
    # a bool passes operator.index, but is no element index
    with pytest.raises(InvalidParameters, match=r"table\[0\]\[0\] = False is not an integer"):
        FiniteSemigroup([[False]])
    with pytest.raises(InvalidParameters, match=r"table\[1\]\[0\] = True is not an integer"):
        validate(2, [[0, 1], [True, 0]])
    with pytest.raises(InvalidParameters, match=r"table\[0\] = 0 is not a row"):
        FiniteSemigroup([0])
    with pytest.raises(InvalidParameters, match=r"table = 5 is not a sequence of rows"):
        FiniteSemigroup(5)
    with pytest.raises(InvalidParameters, match=r"table = None is not a sequence of rows"):
        FiniteSemigroup(None)
    with pytest.raises(InvalidParameters, match=r"table = 5 is not a sequence of rows"):
        validate(1, 5)
    with pytest.raises(InvalidParameters, match=r"table = None is not a sequence of rows"):
        validate(1, None)


def test_idempotents_group_has_only_identity():
    Z4 = cyclic_group(4)
    assert idempotents(Z4) == {identity_element(Z4)}


def test_idempotents_monogenic_3_2():
    S = monogenic(3, 2)
    # the unique idempotent power is x^4, at position 3
    assert idempotents(S) == {3}


def test_idempotents_group_nil_chain():
    S = group_nil_chain(2, 2)
    e = identity_element(S)
    z = zero_element(S)
    assert idempotents(S) == {e, z}
    assert e is not None and z is not None


def test_is_commutative():
    assert is_commutative(cyclic_group(3))
    assert is_commutative(validate(1, [[0]]))
    assert not is_commutative(left_zero_semigroup(2))


def test_is_commutative_matches_pairwise_scan(corpus_le4):
    # the comparison with the transpose against a scan of every pair, on
    # fresh copies whose flag is still unknown
    verdicts = [is_commutative(FiniteSemigroup._trusted(S.table)) for S in corpus_le4]
    assert verdicts == [all(S.table[a][b] == S.table[b][a] for a in S.elements for b in S.elements) for S in corpus_le4]
    assert sum(verdicts) == 1210


def test_repr_gives_the_order_only():
    assert repr(cyclic_group(3)) == "FiniteSemigroup(order=3)"
    assert repr(validate(1, [[0]])) == "FiniteSemigroup(order=1)"


def test_zero_element():
    nil = cyclic_nil(3)
    assert zero_element(nil) == 2  # the top power x^3
    assert zero_element(cyclic_group(2)) is None
    assert zero_element(validate(1, [[0]])) == 0


def test_is_nilsemigroup():
    assert is_nilsemigroup(cyclic_nil(4))
    assert not is_nilsemigroup(cyclic_group(3))
    assert is_nilsemigroup(validate(1, [[0]]))


def test_is_nilsemigroup_matches_zero_scan(corpus_le4, commutative_le5):
    # the idempotent-first test against a full scan for a zero, on every
    # labelled table of order <= 4 and every commutative one of order <= 5
    assert len(commutative_le5) == 31940
    for corpus in (corpus_le4, commutative_le5):
        assert [is_nilsemigroup(S) for S in corpus] == [naive_is_nilsemigroup(S) for S in corpus]
    assert sum(map(is_nilsemigroup, commutative_le5)) == 2409


def test_generated_subsemigroup():
    Z4 = cyclic_group(4)
    assert generated_subsemigroup(Z4, {0}) == frozenset(range(4))
    S = group_nil_chain(2, 2)
    assert generated_subsemigroup(S, {2}) == frozenset({2, 3})
    full = frozenset(S.elements)
    assert generated_subsemigroup(S, full) == full
    with pytest.raises(EmptyGeneratorSet):
        generated_subsemigroup(Z4, set())


def test_generated_subsemigroup_is_monotone_idempotent_closure(corpus_le3):
    for S in corpus_le3[:60]:
        singles = [generated_subsemigroup(S, {x}) for x in S.elements]
        for x in S.elements:
            for y in S.elements:
                both = generated_subsemigroup(S, {x, y})
                assert singles[x] <= both
                assert generated_subsemigroup(S, both) == both


def test_generated_subsemigroup_matches_two_sided_closure(corpus_le4):
    # right products by generators only reach what the two-sided closure
    # does, on every nonempty generator set of every labelled table of
    # order <= 4, noncommutative ones included
    checked = noncommutative = 0
    for S in corpus_le4:
        noncommutative += not is_commutative(S)
        for k in range(1, S.order + 1):
            for gens in itertools.combinations(S.elements, k):
                assert generated_subsemigroup(S, gens) == naive_generated_subsemigroup(S, gens), (S.table, gens)
                checked += 1
    assert checked == 53196
    assert noncommutative > 0


def test_cyclic_data_examples():
    Z5 = cyclic_group(5)
    for x in range(4):  # element 4 is the identity
        cd = cyclic_data(Z5, x)
        assert (cd.index, cd.period) == (1, 5)
    cd = cyclic_data(monogenic(3, 2), 0)
    assert (cd.index, cd.period) == (3, 2)
    cd = cyclic_data(cyclic_nil(4), 0)
    assert (cd.index, cd.period) == (4, 1)


def test_cyclic_data_checks_the_element_on_a_warm_cache():
    S = cyclic_group(3)
    for warm in (False, True):
        if warm:
            cyclic_data(S, 1)
        with pytest.raises(InvalidParameters, match="element 1.0 is not an integer"):
            cyclic_data(S, 1.0)
        with pytest.raises(InvalidParameters, match="element True is not an integer"):
            cyclic_data(S, True)
        with pytest.raises(InvalidParameters, match="element 3 outside semigroup of order 3"):
            cyclic_data(S, 3)


def test_cycle_matches_cyclic_data_and_idempotent_power(corpus_le4):
    # the one cycle walk behind cyclic_data and the certificate record: its
    # powers, their mask and the index agree with cyclic_data and with
    # powers taken by repeated products, and the power at a multiple of the
    # period in the cycle is the idempotent power, on every element of
    # every labelled table of order <= 4
    from idemfree.core import _cycle

    checked = 0
    for S in corpus_le4:
        t = S.table
        for x in S.elements:
            powers, mask, index = _cycle(t, x)
            period = len(powers) + 1 - index
            cd = cyclic_data(S, x)
            assert (tuple(powers), index, period) == (cd.powers, cd.index, cd.period)
            naive = [x]  # x^1 .. x^(n+1): some power repeats
            for _ in range(S.order):
                naive.append(t[naive[-1]][x])
            first = min(k for k in range(len(naive)) if naive[k] in naive[k + 1:])
            assert index == first + 1
            assert period == naive[first + 1:].index(naive[first]) + 1
            assert mask == sum(1 << a for a in set(naive))
            assert powers[index - 1 + (-index) % period] == _idempotent_power(t, x)
            checked += 1
    assert checked == sum(S.order for S in corpus_le4)


def test_cyclic_data_invariants_roundtrip():
    for i in range(1, 12):
        for p in range(1, 13 - i):
            S = monogenic(i, p)
            cd = cyclic_data(S, 0)
            assert (cd.index, cd.period) == (i, p)
            assert len(cd.powers) == i + p - 1
            assert len(set(cd.powers)) == len(cd.powers)
            # x^(I+P) = x^I
            assert cd.power(i + p) == cd.power(i)
    cd = cyclic_data(cyclic_group(3), 0)
    with pytest.raises(InvalidParameters, match="^powers start at exponent 1$"):
        cd.power(0)
    # the exponent is an integer: a bool is not read as 1, nor a float or
    # string converted
    for k in (True, 2.0, "2"):
        with pytest.raises(InvalidParameters, match=f"^exponent {k!r} is not an integer$"):
            cd.power(k)


def test_unique_cycle_idempotent():
    S = monogenic(3, 4)
    cd = cyclic_data(S, 0)
    e = unique_cycle_idempotent(S, 0)
    assert e == cd.power(4)  # l = 4 is the one multiple of 4 in [3, 6]
    Z6 = cyclic_group(6)
    assert unique_cycle_idempotent(Z6, 0) == identity_element(Z6)
    nil = cyclic_nil(5)
    assert unique_cycle_idempotent(nil, 0) == zero_element(nil)


def test_idempotent_power_is_the_idempotent_among_the_powers(corpus_le4):
    # the walk a, a^2, ... stops at the first power that squares to itself;
    # it must be the one idempotent that a scan of the whole power list finds
    for S in corpus_le4:
        t = S.table
        for x in S.elements:
            (e,) = [y for y in cyclic_data(S, x).powers if t[y][y] == y]
            assert _idempotent_power(t, x) == unique_cycle_idempotent(S, x) == e, (S.table, x)


def test_monogenic_displayed_formula_example():
    S = monogenic(3, 2)
    # x^3 * x^4 = x^3: exponent 7 folds to the unique k in [3, 4] odd
    assert S.mul(2, 3) == 2


def test_monogenic_against_transformation_model():
    for i in range(1, 12):
        for p in range(1, 13 - i):
            assert monogenic(i, p).table == tuple(
                tuple(row) for row in transformation_monogenic_table(i, p)
            )


def test_monogenic_special_cases():
    assert monogenic(1, 4).table == cyclic_group(4).table
    assert zero_element(monogenic(4, 1)) == 3
    with pytest.raises(InvalidParameters):
        monogenic(0, 2)
    with pytest.raises(InvalidParameters):
        monogenic(2, 0)
    # parameters are counts: a float is rejected, never truncated
    with pytest.raises(InvalidParameters, match="index 2.5 is not an integer"):
        monogenic(2.5, 2)
    with pytest.raises(InvalidParameters, match="period '2' is not an integer"):
        monogenic(2, "2")


def test_monogenic_tail_group():
    # the last p powers form a subgroup
    for i, p in [(3, 2), (2, 4), (4, 3), (1, 5)]:
        S = monogenic(i, p)
        tail = set(range(i - 1, i + p - 1))
        e = unique_cycle_idempotent(S, 0)
        assert e in tail
        for a in tail:
            assert S.mul(e, a) == a
            # each row covering the tail gives closure and inverses at once
            assert {S.mul(a, b) for b in tail} == tail


def test_idempotents_nonempty_everywhere(corpus_le3):
    for S in corpus_le3:
        assert idempotents(S)


def test_table_text_roundtrip():
    S = group_nil_chain(3, 2)
    text = format_cayley_table(S)
    again = parse_cayley_table(text)
    assert again.table == S.table
    assert format_cayley_table(again) == text


def test_table_text_comments_and_errors():
    assert parse_cayley_table("# comment\n2\n0 1\n1 0\n").order == 2
    with pytest.raises(InvalidParameters):
        parse_cayley_table("")
    with pytest.raises(InvalidParameters):
        parse_cayley_table("2\n0 1\n")
    with pytest.raises(InvalidParameters):
        parse_cayley_table("2\n0 1 1\n1 0\n")
    with pytest.raises(InvalidParameters):
        parse_cayley_table("x\n0\n")
    # an order below 1 is refused at the order line, not by a row count
    with pytest.raises(InvalidParameters, match="order must be at least 1, got -1"):
        parse_cayley_table("-1\n")
    with pytest.raises(InvalidParameters, match="order must be at least 1, got 0"):
        parse_cayley_table("0\n")
    with pytest.raises(InvalidParameters, match="^row 0 contains a non-integer entry$"):
        parse_cayley_table("2\n0 x\n1 1\n")
    # the format writes ASCII digits only: int() would read '0_0' as 0 and
    # a fullwidth or Arabic-Indic digit as its value
    for cell in ["0_0", "\uff10", "\u0661"]:
        with pytest.raises(InvalidParameters, match="^row 1 contains a non-integer entry$"):
            parse_cayley_table(f"2\n0 1\n1 {cell}\n")
    for order in ["0_2", "\uff12"]:
        with pytest.raises(InvalidParameters, match=f"^first line must be the order, got '{order}'$"):
            parse_cayley_table(f"{order}\n0 1\n1 0\n")
