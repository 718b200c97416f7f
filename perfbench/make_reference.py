"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs one rep of every workload at the default seed and stores each
config's ``BerReport`` error CSV (and EM trajectory CSV, where the
config estimates parameters) under ``perfbench/reference/``.  Run it
only on a commit whose outputs are known good; the stored files were
made from the commit that introduced the benchmark.
"""

import os
import sys
import tempfile

import workload as wb


def main():
    wb.import_turbomud()
    os.makedirs(wb.RUN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wb.RUN_DIR) as scratch:
        for name in wb.WORKLOADS:
            configs = wb.with_seed(wb.workload_configs(name),
                                   wb.rep_seed(wb.DEFAULT_SEED, 0))
            rep = wb.run_rep(configs, scratch)
            if rep.failed:
                print(f"{name}: a config raised", file=sys.stderr)
                return 1
            for label, (err_csv, em_csv) in rep.outputs.items():
                err_path, em_path = wb.reference_paths(name, label)
                os.makedirs(os.path.dirname(err_path), exist_ok=True)
                for path, text in ((err_path, err_csv), (em_path, em_csv)):
                    if text:
                        with open(path, "w", encoding="utf-8",
                                  newline="\n") as fh:
                            fh.write(text)
                print(f"{name}/{label}: written")
    return 0


if __name__ == "__main__":
    sys.exit(main())
