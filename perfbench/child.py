"""Fresh-interpreter helpers the benchmark runs as subprocesses.

``child.py probe WORKLOAD SEED``
    Import ``semifront.cli`` (the whole package), build the workload's
    inputs, then print one JSON line with the import time.  The parent
    times the process from spawn until that line arrives: ``setup_s``.
``child.py cli SPANS_FILE ARGV...``
    Run ``semifront.cli.main(ARGV)`` with every layer traced and write the
    spans to SPANS_FILE; exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time


def probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import semifront.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    import workloads

    workloads.WORKLOADS[workload][0](seed)
    print(json.dumps({"import_s": import_s}), flush=True)


def traced_cli(spans_file: str, argv: list) -> int:
    from measure import Tracer

    tr = Tracer()
    i = tr.open("cli.import")
    import semifront.cli as cli

    tr.close(i)
    with tr.installed():
        build = cli.model_from_config
        cli.model_from_config = lambda cfg: tr.traced_model(build(cfg))
        try:
            with tr.span("cli.main"):
                code = cli.main(argv)
        finally:
            cli.model_from_config = build
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "counts": tr.counts}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        probe(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
