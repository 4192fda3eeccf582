"""Every bench suite, as data.

``SUITES`` is the one table the entry points read: ``python -m
repro.bench`` derives its flags, ``--only`` validation, run loop and
``--smoke`` gates from it, and CI runs one matrix job per suite that
declares a smoke. Tuple order is report order (the ``--out`` text and
the "valid:" list follow it). To add a suite, write
``suites/<name>.py`` ending in a :class:`~repro.bench.suite.Suite`
record and list it here — there is no other registration step.
"""

from repro.bench.suites import (
    concurrency,
    faults,
    federation,
    orchestration,
    paper,
    query,
    replication,
    scaleout,
    serving,
)

SUITES = (
    paper.TABLE1,
    paper.FIG13,
    paper.FIG10,
    paper.FIG11,
    concurrency.CONCURRENCY,
    scaleout.SCALEOUT,
    faults.FAULTS,
    replication.REPLICATION,
    orchestration.ORCHESTRATION,
    serving.SERVING,
    federation.FEDERATION,
    query.QUERY,
    paper.TPCW,
)
