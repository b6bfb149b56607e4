"""What a fresh process pays before its first answers (``cold_start_s``).

Run by the harness as ``python coldstart.py <index-file> <pairs-file>``:
import the library, ``load_index`` the saved index, answer the first
hundred pairs, print the answers as one line of 0/1 for the parent to check.
The parent times the whole process, interpreter start included.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def main() -> int:
    index_file, pairs_file = sys.argv[1:3]
    from repro.persistence import load_index

    index = load_index(index_file)
    pairs = json.loads(Path(pairs_file).read_text())
    print("".join("1" if index.query(s, t) else "0" for s, t in pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
