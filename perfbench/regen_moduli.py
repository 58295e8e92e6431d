"""Regenerate perfbench/moduli.json from the checker's own search.

    python3 perfbench/regen_moduli.py

Lists, for every field a workload uses, the smallest monic irreducible
in the canonical order that rootfield.mk_field documents.  A run checks
each field's modulus against this list and checks every listed modulus
for irreducibility, so a change of canonical choice shows as a failed
check until the list is regenerated and the change is reviewed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.checker import canonical_modulus  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main() -> int:
    fields = sorted({pm for wl in WORKLOADS.values() for pm in wl.fields()})
    moduli = {}
    for p, m in fields:
        t0 = time.perf_counter()
        moduli[f"{p},{m}"] = canonical_modulus(p, m)
        print(f"F_{p}^{m}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    path = Path(__file__).with_name("moduli.json")
    lines = [f"  {json.dumps(key)}: {json.dumps(f)}"
             for key, f in moduli.items()]
    with open(path, "w") as fh:
        fh.write('{"moduli": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
