"""A Python CSV writer: the oracle for ``_kernel.write_csv``, whose rows are
formatted in C by ``_kernel.c``'s ``format_table``.

``write_csv`` formats each cell with Python's ``repr`` and streams the rows
through a text file.
"""

from itertools import count

import numpy as np


def write_csv(path: str, header, table, numbered: bool = False):
    """Write a table of three float columns as csv.writer would.

    Floats print as their shortest repr and lines end in \\r\\n.  With
    ``numbered``, each row starts with its index, under the first header.
    """
    # Python floats: repr of a numpy scalar is "np.float64(...)".  One
    # iterator drawn three times per row streams the cells without building
    # a list of rows or of strings.
    cells = map(repr, np.asarray(table, dtype=float).ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        if numbered:
            fh.writelines(f"{i},{a},{b},{c}\r\n"
                          for i, a, b, c in zip(count(), cells, cells, cells))
        else:
            fh.writelines(f"{a},{b},{c}\r\n"
                          for a, b, c in zip(cells, cells, cells))
