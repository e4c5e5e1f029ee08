"""Record the `report` workload's reference outputs.

Writes, for every corpus instance, the exact stdout of

    gkm report .perfbench_out/report/<name>.json --xi <document xi> --json

to ``perfbench/reference/<name>.json``.  The `report` workload fails any
op on the document covector whose output differs from it by one byte.
Run from the repository root, only when the output is meant to change:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import os

import run


def main() -> None:
    run.import_program()
    os.chdir(run.ROOT)
    from gkm.corpus import corpus
    from workloads import REFERENCE_DIR, report_argv, run_cli, write_documents

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, path in write_documents(run.WORKDIR).items():
        code, text = run_cli(report_argv(path, corpus(name).xi))
        if code != 0:
            raise SystemExit(f"report on {name} exited {code}")
        (REFERENCE_DIR / f"{name}.json").write_bytes(text.encode("utf-8"))
        print(f"recorded {name}")


if __name__ == "__main__":
    main()
