"""Property-based check of every Boolean operation against a
truth-table oracle on random expressions (hypothesis)."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager

NUM_VARS = 5


class Expr:
    """Tiny expression tree evaluated both as truth table and as BDD."""

    def __init__(self, op, args):
        self.op = op
        self.args = args

    def truth(self, assignment):
        if self.op == "var":
            return assignment[self.args[0]]
        if self.op == "const":
            return self.args[0]
        if self.op == "not":
            return 1 - self.args[0].truth(assignment)
        a = self.args[0].truth(assignment)
        b = self.args[1].truth(assignment)
        if self.op == "and":
            return a & b
        if self.op == "or":
            return a | b
        if self.op == "xor":
            return a ^ b
        if self.op == "xnor":
            return 1 - (a ^ b)
        if self.op == "implies":
            return (1 - a) | b
        raise AssertionError(self.op)

    def bdd(self, manager):
        if self.op == "var":
            return manager.mk_var(self.args[0])
        if self.op == "const":
            return manager.const(self.args[0])
        if self.op == "not":
            return manager.not_(self.args[0].bdd(manager))
        a = self.args[0].bdd(manager)
        b = self.args[1].bdd(manager)
        return getattr(
            manager,
            {"and": "and_", "or": "or_", "xor": "xor", "xnor": "xnor",
             "implies": "implies"}[self.op],
        )(a, b)


def exprs():
    leaves = st.one_of(
        st.integers(0, NUM_VARS - 1).map(lambda v: Expr("var", (v,))),
        st.integers(0, 1).map(lambda b: Expr("const", (b,))),
    )

    def extend(children):
        unary = children.map(lambda e: Expr("not", (e,)))
        binary = st.tuples(
            st.sampled_from(["and", "or", "xor", "xnor", "implies"]),
            children,
            children,
        ).map(lambda t: Expr(t[0], (t[1], t[2])))
        return st.one_of(unary, binary)

    return st.recursive(leaves, extend, max_leaves=12)


def all_assignments():
    for bits in itertools.product((0, 1), repeat=NUM_VARS):
        yield dict(enumerate(bits))


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_bdd_matches_truth_table(expr):
    manager = BddManager(num_vars=NUM_VARS)
    node = expr.bdd(manager)
    for assignment in all_assignments():
        assert manager.evaluate(node, assignment) == expr.truth(assignment)


@given(exprs(), exprs())
@settings(max_examples=100, deadline=None)
def test_canonicity(e1, e2):
    """Two expressions get the same node iff they are the same function."""
    manager = BddManager(num_vars=NUM_VARS)
    n1, n2 = e1.bdd(manager), e2.bdd(manager)
    semantically_equal = all(
        e1.truth(a) == e2.truth(a) for a in all_assignments()
    )
    assert (n1 == n2) == semantically_equal


@given(exprs())
@settings(max_examples=100, deadline=None)
def test_ite_shannon_expansion(expr):
    """f == ite(x, f|x=1, f|x=0) for every variable x."""
    manager = BddManager(num_vars=NUM_VARS)
    f = expr.bdd(manager)
    for var in range(NUM_VARS):
        hi = manager.restrict(f, var, 1)
        lo = manager.restrict(f, var, 0)
        assert manager.ite(manager.mk_var(var), hi, lo) == f


@given(st.lists(exprs(), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_operations_sharing_one_table_stay_apart(operands):
    """Every operation memoises into the same computed table.

    AND/OR/NOT use int keys and the rest tuple keys; a collision
    between two operations would hand one of them the other's result.
    So one manager computes every connective on the same operand pairs,
    interleaved with ite/restrict/rename, twice around a partial
    eviction, and every result must match its truth table.
    """
    manager = BddManager(num_vars=2 * NUM_VARS)
    to_y = {var: var + NUM_VARS for var in range(NUM_VARS)}
    nodes = [expr.bdd(manager) for expr in operands]
    first_round = None
    for _round in range(2):
        results = []
        for (ea, a), (eb, b) in itertools.product(
            zip(operands, nodes), repeat=2
        ):
            checks = [
                (manager.and_(a, b), lambda s: ea.truth(s) & eb.truth(s)),
                (manager.or_(a, b), lambda s: ea.truth(s) | eb.truth(s)),
                (manager.ite(a, b, manager.not_(b)),
                 lambda s: 1 - (ea.truth(s) ^ eb.truth(s))),
                (manager.xor(a, b), lambda s: ea.truth(s) ^ eb.truth(s)),
                (manager.not_(a), lambda s: 1 - ea.truth(s)),
                (manager.restrict(a, 0, 1),
                 lambda s: ea.truth({**s, 0: 1})),
                (manager.xnor(a, b),
                 lambda s: 1 - (ea.truth(s) ^ eb.truth(s))),
                (manager.or_(b, a), lambda s: ea.truth(s) | eb.truth(s)),
            ]
            for node, truth in checks:
                for assignment in all_assignments():
                    assert manager.evaluate(node, assignment) == truth(
                        assignment
                    )
                results.append(node)
            renamed = manager.rename(a, to_y)
            for assignment in all_assignments():
                # y carries the assignment, x its complement: the
                # renamed function must read y only
                shifted = {var + NUM_VARS: bit
                           for var, bit in assignment.items()}
                shifted.update({var: 1 - bit
                                for var, bit in assignment.items()})
                assert manager.evaluate(renamed, shifted) == ea.truth(
                    assignment
                )
            results.append(renamed)
        if first_round is None:
            first_round = results
            manager.evict_cache(0.5)
        else:
            assert results == first_round  # canonical across rounds
