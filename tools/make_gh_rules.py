"""Write the Gauss-Hermite rule table that the gkquad package ships.

Builds every rule n = 1..N_MAX with the reference construction
``gkquad.gauss_hermite._golub_welsch`` and saves them as one float64
array of shape (2, N_MAX (N_MAX + 1) / 2): nodes in row 0, weights in
row 1, the n-point rule at columns n (n - 1) / 2 up to n (n + 1) / 2 - 1.
Run from the repository root:

    PYTHONPATH=src python tools/make_gh_rules.py [OUT]

OUT defaults to src/gkquad/gh_rules.npy, the file the package reads.
"""

import sys

import numpy as np

from gkquad.gauss_hermite import _TABLE_PATH, N_MAX, _golub_welsch


def main(argv: list[str]) -> int:
    out = argv[0] if argv else _TABLE_PATH
    rules = [_golub_welsch(n) for n in range(1, N_MAX + 1)]
    table = np.stack([
        np.concatenate([rule.nodes for rule in rules]),
        np.concatenate([rule.weights for rule in rules]),
    ])
    np.save(out, table, allow_pickle=False)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
