"""Print the sha256 of every pinned output, or rewrite the manifest.

    PYTHONPATH=src python tools/digests.py           # one "key sha256" line per key
    PYTHONPATH=src python tools/digests.py --write   # rewrite tests/digests.json

The cases are ``tests/pinned.py``'s registry, and ``cricpred`` is imported
from ``PYTHONPATH``, so one copy of this tool digests any checkout's
``src``. Run bare, it prints every key, league 101 included; byte identity
of two checkouts on one host is then one ``diff`` of two runs' output.
``--write`` records the manifest's families in ``tests/digests.json`` and
prints each key whose digest changed, appeared or went away: the list an
intended output change states.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import pinned  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite tests/digests.json and print the keys that changed")
    args = parser.parse_args()
    if not args.write:
        for group in pinned.CASES:
            for key, digest in sorted(pinned.digests(group).items()):
                print(key, digest, flush=True)
        return
    old = pinned.manifest()
    new = {}
    for group in pinned.manifest_groups():
        new.update(pinned.digests(group))
    pinned.MANIFEST.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(key)


if __name__ == "__main__":
    main()
