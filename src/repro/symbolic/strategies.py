"""Observation-time strategies: SOT, rMOT and MOT (Section IV.A).

All three run on top of the same event-driven symbolic fault
propagation; they differ only in what happens when fault effects (may)
reach the primary outputs of a time frame:

* **SOT** — the fault is detected when some PO has a *constant*
  fault-free value b and the *constant* faulty value ~b.
* **rMOT** — good and faulty machine share the initial-state variables
  x; for every PO whose fault-free value is constant, the equivalence
  ``[o_i(x,t) == o_i^f(x,t)]`` is multiplied into the per-fault
  detection function; detected when it collapses to 0.
* **MOT** — the faulty machine conceptually starts from its own
  variables y; faulty PO functions are renamed ``x -> y`` (the paper's
  compose step) and *every* PO contributes an equivalence term, whether
  or not fault effects reached it (two identical functions of x and y
  are still a non-trivial constraint between the two initial states).

Each strategy is stateless; per-fault accumulator state (the detection
function) is held by the simulator and passed in.
"""

from repro.bdd.manager import FALSE
from repro.faults.status import BY_MOT, BY_RMOT, BY_SOT


class FrameContext:
    """Shared per-frame data handed to the strategies.

    ``good_po`` holds the fault-free PO functions of this frame.  The
    renamed copies ``good_po(y)``, the cross terms
    ``[good_po(x) == good_po(y)]`` and the faulty terms
    ``[good_po(x) == o^f(y)]`` needed by MOT are cached lazily so each
    is built once per frame, not once per fault.  A faulty term is
    keyed by its PO and faulty function: many faults drive a PO to the
    same faulty function in one frame, and rebuilding its term would
    only hit the computed table, so the cache builds no node fewer.
    """

    def __init__(self, manager, state_vars, good_po):
        self.manager = manager
        self.state_vars = state_vars
        self.good_po = good_po
        # ``o(x) -> o(y)``, its map validated once per frame
        self.rename_to_y = manager.renamer(
            state_vars.x_to_y() if state_vars else None
        )
        self._good_po_y = {}
        self._good_cross_term = {}
        self._good_cross_product = None
        self._faulty_term = {}

    def good_po_y(self, po_pos):
        """Cached ``o_i(y, t)``."""
        found = self._good_po_y.get(po_pos)
        if found is None:
            found = self.rename_to_y(self.good_po[po_pos])
            self._good_po_y[po_pos] = found
        return found

    def good_cross_term(self, po_pos):
        """Cached ``[o_i(x,t) == o_i(y,t)]`` for unreached POs."""
        found = self._good_cross_term.get(po_pos)
        if found is None:
            found = self.manager.xnor(
                self.good_po[po_pos], self.good_po_y(po_pos)
            )
            self._good_cross_term[po_pos] = found
        return found

    def faulty_term(self, po_pos, faulty):
        """Cached ``[o_i(x,t) == o_i^f(y,t)]`` for a reached PO."""
        key = (po_pos, faulty)
        found = self._faulty_term.get(key)
        if found is None:
            found = self.manager.xnor(
                self.good_po[po_pos], self.rename_to_y(faulty)
            )
            self._faulty_term[key] = found
        return found

    def good_cross_product(self):
        """Cached ``prod_i [o_i(x,t) == o_i(y,t)]`` for silent faults."""
        if self._good_cross_product is None:
            product = self.manager.const(1)
            for po_pos in range(len(self.good_po)):
                product = self.manager.and_(
                    product, self.good_cross_term(po_pos)
                )
            self._good_cross_product = product
        return self._good_cross_product


class SotStrategy:
    """Single observation time (the symbolic simulator of [8])."""

    name = "SOT"
    detected_by = BY_SOT
    needs_y_variables = False

    def initial_state(self, manager):
        return None  # SOT keeps no per-fault accumulator

    def observe(self, ctx, acc, po_diff):
        """Return ``(detected, new_accumulator)`` for this frame."""
        manager = ctx.manager
        for po_pos, faulty in po_diff.items():
            good = ctx.good_po[po_pos]
            if (
                manager.is_const(good)
                and manager.is_const(faulty)
                and good != faulty
            ):
                return True, acc
        return False, acc


class RmotStrategy:
    """Restricted MOT: shared variables, well-defined outputs only."""

    name = "rMOT"
    detected_by = BY_RMOT
    needs_y_variables = False

    def initial_state(self, manager):
        from repro.bdd.manager import TRUE

        return TRUE

    def observe(self, ctx, acc, po_diff):
        manager = ctx.manager
        for po_pos, faulty in po_diff.items():
            good = ctx.good_po[po_pos]
            if not manager.is_const(good):
                continue  # rMOT only observes well-defined outputs
            acc = manager.and_(acc, manager.xnor(good, faulty))
            if acc == FALSE:
                return True, acc
        return False, acc


class MotStrategy:
    """Full multiple observation time with independent y variables."""

    name = "MOT"
    detected_by = BY_MOT
    needs_y_variables = True

    def initial_state(self, manager):
        from repro.bdd.manager import TRUE

        return TRUE

    def observe(self, ctx, acc, po_diff):
        manager = ctx.manager
        if not po_diff:
            acc = manager.and_(acc, ctx.good_cross_product())
            return acc == FALSE, acc
        for po_pos in range(len(ctx.good_po)):
            faulty = po_diff.get(po_pos)
            if faulty is None:
                term = ctx.good_cross_term(po_pos)
            else:
                term = ctx.faulty_term(po_pos, faulty)
            acc = manager.and_(acc, term)
            if acc == FALSE:
                return True, acc
        return False, acc


_STRATEGIES = {
    "SOT": SotStrategy,
    "rMOT": RmotStrategy,
    "MOT": MotStrategy,
}


def get_strategy(name):
    """Instantiate a strategy by its paper name ('SOT', 'rMOT', 'MOT')."""
    try:
        return _STRATEGIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(_STRATEGIES)}"
        ) from None
