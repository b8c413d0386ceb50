"""The hybrid fault simulator (Sections I and IV.A).

Runs the symbolic simulation of :mod:`repro.symbolic.fault_sim` until
the OBDD node limit is exceeded, then falls back to three-valued logic
for a few frames and re-opens a fresh symbolic session, exactly as the
paper prescribes.  The frame loop that does this is the campaign's
(:class:`repro.runtime.campaign.Campaign`): :func:`hybrid_fault_simulate`
is that campaign with its pre-passes and runtime features switched off,
so every caller gets the same verdicts from the same code.

Any fallback or demotion makes the final classification conservative:
faults still undetected might have been caught by an uninterrupted
symbolic run.  Results produced this way are flagged ``exact=False``
(the asterisks in Tables II and III).
"""

DEFAULT_NODE_LIMIT = 30_000  # the paper's space limit
DEFAULT_FALLBACK_FRAMES = 5


def hybrid_fault_simulate(
    compiled,
    sequence,
    fault_set,
    strategy="MOT",
    node_limit=DEFAULT_NODE_LIMIT,
    fallback_frames=DEFAULT_FALLBACK_FRAMES,
    initial_state=None,
    variable_scheme="interleaved",
):
    """Hybrid symbolic / three-valued fault simulation.

    Mirrors :func:`repro.symbolic.fault_sim.symbolic_fault_simulate`
    but never dies on the node limit: simulates the symbolic candidates
    of *fault_set* with the campaign's overflow protocol (GC and retry,
    per-fault demotion down the *strategy*'s ladder, three-valued
    interludes) and returns its
    :class:`~repro.runtime.campaign.CampaignResult`.
    """
    # repro.runtime.campaign imports repro.symbolic: import on call
    from repro.runtime.campaign import Campaign

    return Campaign(
        compiled,
        sequence,
        fault_set,
        strategy=strategy,
        node_limit=node_limit,
        fallback_frames=fallback_frames,
        initial_state=initial_state,
        variable_scheme=variable_scheme,
        xred=False,
        pre_pass_3v=False,
    ).run()
