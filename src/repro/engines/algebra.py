"""Value algebras the generic simulation engines are parameterised over.

An algebra provides the constants and connectives needed to evaluate a
gate.  Three implementations cover the paper:

* :class:`BoolAlgebra` — plain 0/1 simulation (explicit-enumeration
  baselines, concrete responses for test evaluation),
* :class:`ThreeValuedAlgebra` — the 0/1/X logic,
* :class:`BddAlgebra` — OBDD node indices; this is what turns the very
  same event-driven engine into the *symbolic* simulator of Section IV.

Values must support ``==`` such that equal values are interchangeable;
BDD canonicity gives this for free for node indices.
"""

from repro.logic import boolean, threeval


class BoolAlgebra:
    """Two-valued logic over the integers 0/1."""

    zero = 0
    one = 1

    @staticmethod
    def const(bit):
        return 1 if bit else 0

    @staticmethod
    def not_(a):
        return boolean.not2(a)

    @staticmethod
    def and_(a, b):
        return boolean.and2(a, b)

    @staticmethod
    def or_(a, b):
        return boolean.or2(a, b)

    @staticmethod
    def xor(a, b):
        return boolean.xor2(a, b)

    @staticmethod
    def is_known(a):
        return True

    @staticmethod
    def known_value(a):
        return a


class ThreeValuedAlgebra:
    """The 0/1/X logic of conventional sequential fault simulation."""

    zero = threeval.ZERO
    one = threeval.ONE
    unknown = threeval.X

    @staticmethod
    def const(bit):
        return threeval.ONE if bit else threeval.ZERO

    @staticmethod
    def not_(a):
        return threeval.not3(a)

    @staticmethod
    def and_(a, b):
        return threeval.and3(a, b)

    @staticmethod
    def or_(a, b):
        return threeval.or3(a, b)

    @staticmethod
    def xor(a, b):
        return threeval.xor3(a, b)

    @staticmethod
    def is_known(a):
        return threeval.is_known(a)

    @staticmethod
    def known_value(a):
        return a if threeval.is_known(a) else None


class BddAlgebra:
    """Symbolic logic: values are node indices of a shared BddManager.

    Most gate evaluations meet a constant or two equal operands; those
    are resolved here, without entering the manager.  Each short-cut
    returns what the manager would return and builds no node the
    manager would have built, so results and node allocation are the
    same either way.
    """

    def __init__(self, manager):
        self.manager = manager
        self.zero = 0  # repro.bdd.manager.FALSE
        self.one = 1  # repro.bdd.manager.TRUE

    def const(self, bit):
        return self.one if bit else self.zero

    def not_(self, a):
        if a < 2:
            return 1 - a
        return self.manager.not_(a)

    def and_(self, a, b):
        if a < 2:
            return b if a else 0
        if b < 2:
            return a if b else 0
        if a == b:
            return a
        return self.manager.and_(a, b)

    def or_(self, a, b):
        if a < 2:
            return 1 if a else b
        if b < 2:
            return 1 if b else a
        if a == b:
            return a
        return self.manager.or_(a, b)

    def xor(self, a, b):
        # only a constant b is resolved here: the manager builds NOT b
        # before anything else, and skipping that would drop its nodes
        if b < 2:
            return self.not_(a) if b else a
        return self.manager.xor(a, b)

    def is_known(self, a):
        """Known here means: a constant function of the state variables."""
        return a < 2

    def known_value(self, a):
        return a if a < 2 else None


BOOL = BoolAlgebra()
THREE_VALUED = ThreeValuedAlgebra()
