"""Record the reference outputs that the benchmark checks at the reference seed.

    python3 bench/record_reference.py

Reads every page of every workload once at ``REFERENCE_SEED`` and writes
each page's tokens, decoder step count and loss to bench/reference.json.
Run it only at a commit whose outputs are known to be right: the
benchmark fails any later commit whose outputs differ from the file.
"""

import json
import shutil

import run
import workloads as wl


def main() -> None:
    recorded = {}
    for workload in wl.WORKLOADS.values():
        probe = wl.StepProbe()
        checker = wl.Checker(workload, None, probe)
        page_dir = wl.ROOT / ".bench_build" / "pages" / f"reference-{workload.name}"
        try:
            with probe.installed():
                setup = wl.set_up(workload, wl.REFERENCE_SEED, page_dir)
                for page in range(workload.pages):
                    checker.run(setup, page)
        finally:
            shutil.rmtree(page_dir, ignore_errors=True)
        if checker.failed:
            raise SystemExit(f"{workload.name}: {checker.problems}")
        recorded[workload.name] = checker.reference_rows()
    payload = {"seed": wl.REFERENCE_SEED, "loss_rtol": wl.LOSS_RTOL,
               "environment": run.environment(wl.REFERENCE_SEED), "workloads": recorded}
    wl.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
