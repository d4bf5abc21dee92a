(** [static] — zero-profiling hot-path prediction from the Wu–Larus
    estimate alone.

    [create ~program] computes the {!Hotpath_analysis.Freq} estimate,
    which ranks the static head set by estimated flow; each state made
    from it arms the heads clearing the paper's 0.1% hot threshold.  At run time the scheme keeps no counters and
    charges zero profiling operations: the first tail executing at an
    armed head is predicted outright (each head fires once).  The
    prediction delay is validated but inert — the series is flat in tau
    by construction.

    This is the "how much accuracy with {e zero} profiling?" baseline:
    fig2/3/4/5's static column, the row every profiled scheme must
    beat. *)

include Scheme.S
