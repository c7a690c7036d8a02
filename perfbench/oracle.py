"""Frozen expected values for every benchmark cell.

The numbers are copied here rather than imported from the test suite, so a
change to the tests cannot silently change what the benchmark accepts.
Integer tables were computed by endolift at the commit that introduced the
benchmark and agree with the acceptance battery where the two overlap; the
CLI digests are sha256 sums of the exact report bytes at that commit.
"""

# vertical multiplicity 2*p^(c0-1) + 4*p^(c0-2) + ... + 2*c0 on the
# criterion-1 grid; length_by_elimination must agree on every c0 <= 2 cell
MULT_GRID = {
    ("unr", 3, 1): 2,
    ("ram", 3, 1): 2,
    ("unr", 3, 2): 10,
    ("ram", 3, 2): 10,
    ("unr", 5, 1): 2,
    ("ram", 5, 1): 2,
    ("unr", 5, 2): 14,
    ("ram", 5, 2): 14,
    ("unr", 3, 3): 36,
}

# elementary-divisor exponents of the stabilized corner presentations
SNF_EXPONENTS = {
    ("unr", 3, 1): (0, 1, 1),
    ("ram", 3, 1): (0, 1, 1),
    ("unr", 3, 2): (0, 0, 0, 1, 1, 1, 1, 3, 3),
    ("ram", 3, 2): (0, 0, 0, 1, 1, 1, 1, 3, 3),
    ("unr", 3, 3): (0,) * 7 + (1,) * 14 + (3,) * 4 + (5, 5),
}

# x1-window radius at which quotient_length_details stabilized each corner
# presentation; the permuted-SNF cells are built at exactly these windows
SNF_RADIUS = {
    ("unr", 3, 1): 36,
    ("ram", 3, 1): 36,
    ("unr", 3, 2): 108,
    ("ram", 3, 2): 432,
}

# every membership in the annihilator table holds (criterion 2); the bare-x2
# row exists only at depth 1
ANNIHILATOR_KEYS = {
    1: (
        "balanced_x2_power_in_ideal",
        "bare_x2_outside_ideal",
        "p_to_2k_in_ideal",
        "p_to_2k_plus_1_in_max_multiple",
        "x2_to_p_k_in_max_multiple",
    ),
    2: (
        "balanced_x2_power_in_ideal",
        "p_to_2k_in_ideal",
        "p_to_2k_plus_1_in_max_multiple",
        "x2_to_p_k_in_max_multiple",
    ),
}


def sublattice_exponents(k: int):
    """Pivot exponents of the unique stable index-p^k sublattice."""
    return ((k + 1) // 2, k // 2)


def sublattice_parity(k: int) -> str:
    """Lie parity alternates psi, psi-bar, psi, ... starting at k = 0."""
    return "psi" if k % 2 == 0 else "psi-bar"


# superlattice_family(s, m) for the (s, m) the benchmark enumerates
SUPERLATTICE_FAMILY = {
    (1, 1): [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    (2, 1): [(1, 1, 0)],
    (2, 2): [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)],
}


def census_counts(p: int):
    """hodge_lift_census(p): all p^8 graphs, a unique jointly stable one."""
    return {"all": p**8, "order_stable": 1, "uniformizer_stable": p**4, "both_stable": 1}


# inventory tables, index c0 (or k, or s) = 0..4
TOTAL_PROPER = {
    ("unr", 3): [0, 5, 34, 159, 644],
    ("unr", 5): [0, 7, 74, 561, 3748],
    ("unr", 7): [0, 9, 130, 1371, 12804],
    ("unr", 11): [0, 13, 290, 4791, 70276],
    ("ram", 3): [1, 12, 65, 280, 1089],
    ("ram", 5): [1, 18, 155, 1092, 7029],
    ("ram", 7): [1, 24, 285, 2800, 25209],
    ("ram", 11): [1, 36, 665, 10248, 144945],
}

PER_LEVEL_SUM = {
    ("unr", 3): [0, 1, 13, 73, 325],
    ("unr", 5): [0, 3, 43, 363, 2563],
    ("unr", 7): [0, 5, 89, 1013, 9833],
    ("unr", 11): [0, 9, 229, 3969, 59629],
    ("ram", 3): [0, 4, 28, 136, 568],
    ("ram", 5): [0, 8, 88, 688, 4688],
    ("ram", 7): [0, 12, 180, 1944, 18408],
    ("ram", 11): [0, 20, 460, 7720, 114200],
}

THRESHOLDS = {
    ("unr", 3): [0, 4, 16, 52, 160],
    ("unr", 5): [0, 6, 36, 186, 936],
    ("unr", 7): [0, 8, 64, 456, 3200],
    ("unr", 11): [0, 12, 144, 1596, 17568],
    ("ram", 3): [1, 7, 25, 79, 241],
    ("ram", 5): [1, 11, 61, 311, 1561],
    ("ram", 7): [1, 15, 113, 799, 5601],
    ("ram", 11): [1, 23, 265, 2927, 32209],
}

SPECIAL_FIBER_LENGTH = {
    ("unr", 3): [1, 5, 17, 53, 161],
    ("unr", 5): [1, 7, 37, 187, 937],
    ("unr", 7): [1, 9, 65, 457, 3201],
    ("unr", 11): [1, 13, 145, 1597, 17569],
    ("ram", 3): [2, 8, 26, 80, 242],
    ("ram", 5): [2, 12, 62, 312, 1562],
    ("ram", 7): [2, 16, 114, 800, 5602],
    ("ram", 11): [2, 24, 266, 2928, 32210],
}

# the ramified printed corollary is known to disagree with the assembled
# total; at (p, c0) = (3, 1) it reads -22 against 8
RAMIFIED_DISPLAY_3_1 = {"assembled": 8, "displayed": -22}

# (alpha terms, beta terms) of the depth-k tower corners; they do not
# depend on p within the benchmark's grid
TOWER_TERMS = {
    "unr": {1: (3, 3), 2: (9, 4), 3: (12, 23), 4: (54, 29), 5: (68, 149), 6: (337, 180)},
    "ram": {1: (4, 7), 2: (17, 11), 3: (28, 60), 4: (137, 89), 5: (204, 455), 6: (1025, 635)},
}

# sha256 of each CLI report (stdout, identical to the written file)
CLI_DIGESTS = {
    ("multiplicity", "--case", "both", "--p", "3,5", "--c0", "1..2"):
        "fdb6d1c9972184e1bf6da97228d01e8356ea34655b1733b1967cf0d0b66cec59",
    ("lattice", "--p", "3,5", "--sublattices", "3", "--superlattices", "2", "--appendix"):
        "f42d7f4d9c8ba1ca02a324901fbe510b6a9d2b531b0c20566095dbaf4bc3fcbb",
    ("selfcheck",):
        "ebdf3fec600133d4327cb07fc33dbd741a0cf24b6bdf1570c887f0c2e290e9c5",
    ("recursion", "--case", "both", "--p", "3,5", "--k", "3"):
        "c57b2c3e9d9005dd49783dd34831cacd384fbdc0e380dbbb8168ede771d424bb",
    ("inventory", "--case", "both", "--p", "3,5,7", "--c0", "0..4"):
        "7f0c8480085b23e8d22f667810018768aeb384eaea81e63a6ed79038082bd786",
}
