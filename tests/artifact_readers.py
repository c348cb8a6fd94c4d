"""Readers of the two CSV artifacts that only the tests parse back.

``meip`` writes field and confusion CSVs but never reads them; these
readers go through the same ``_reading`` line reader as the artifacts
``meip`` does load, so a damaged file fails at its exact line.
"""

import numpy as np

from meip.pipeline import (CONFUSION_MAGIC, FIELD_MAGIC, _counts, _floats,
                           _reading)


def read_field_csv(path) -> np.ndarray:
    with _reading(path, FIELD_MAGIC, "a field CSV", ",") as r:
        rows, cols = r.row(None, 2, _counts, r.header.partition(",")[2])
        grid = [r.row(None, cols) for _ in range(rows)]
    return np.reshape(grid, (rows, cols))


def read_confusion_csv(path):
    """Return (counts, precision, recall, accuracy) parsed back from CSV."""
    with _reading(path, CONFUSION_MAGIC, "a confusion CSV", ",") as r:
        *targets, last = r.header.split(",")
        if last != "precision" or not all(t.startswith("target_")
                                          for t in targets):
            raise r.error("expected 'target_<class>,...,precision' columns")
        n = len(targets)
        rows = [r.row("output_" + t[len("target_"):], n + 1,
                      lambda v: (_counts(v[:n]), _floats(v[n:])[0]))
                for t in targets]
        tail = r.row("recall", n + 1)
    return (np.array([c for c, _ in rows]), np.array([p for _, p in rows]),
            tail[:n], float(tail[n]))
