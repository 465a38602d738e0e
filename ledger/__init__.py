"""The performance ledger: a host-time benchmark of the PGX.D/Async simulator.

Two clocks exist in this repository and the ledger never mixes them:
*simulated* ticks/ops are deterministic and serve as the correctness
oracle (they must repeat exactly); *host* seconds are what the ledger
measures.  Every number is host time unless its name says ``ticks`` or
``ops``.  See ``ledger/README.md`` for the metric and workload catalogue.
"""

import os
import sys

#: The checkout root (the directory holding ``ledger/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The engine's package root; the ledger only ever imports ``repro`` from it.
SRC = os.path.join(ROOT, "src")

if os.path.isdir(SRC) and SRC not in sys.path:
    sys.path.insert(0, SRC)
