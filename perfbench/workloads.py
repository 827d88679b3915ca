"""Fixed job lists of the three benchmark workloads.

Plain data only: this module is imported by the harness (which never imports
latstab) and by the child processes that run the program.
"""

WORKLOADS = ("audit-cli", "exact-search", "structure-large")

# audit-cli: one `latstab audit --jobs 1` process per family.
AUDIT_FAMILIES = (
    ("toric", "2..4"),
    ("surface", "2..4"),
    ("bacon_shor", "2..4"),
    ("repetition", "2..12"),
    ("heisenberg", "3,5,7,9"),
    ("generalized_toric", "2..3"),
    ("steane_chain", "1,3,5"),
)

# exact-search: (function, family, L, expect_capacity_error).  Small n, so the
# exponential engines do the work; the last three sit just past the default
# node cap and must raise CapacityError.
EXACT_CALLS = (
    ("distance_dp", "toric", 4, False),
    ("distance_dp", "surface", 8, False),
    ("distance_dp", "bacon_shor", 9, False),
    ("barrier_exact", "toric", 3, False),
    ("barrier_exact", "steane_chain", 3, False),
    ("barrier_exact", "heisenberg", 11, False),
    ("barrier_exact", "repetition", 22, False),
    ("distance_bruteforce", "toric", 3, False),
    ("distance_bruteforce", "surface", 3, False),
    ("distance_bruteforce", "bacon_shor", 3, False),
    ("barrier_exact", "toric", 4, True),
    ("barrier_exact", "surface", 4, True),
    ("barrier_exact", "bacon_shor", 4, True),
)

# structure-large: (family, L).  generalized_toric uses its default D=3.
STRUCTURE_CODES = (
    ("toric", 8),
    ("toric", 10),
    ("toric", 12),
    ("surface", 9),
    ("generalized_toric", 3),
    ("bacon_shor", 7),
)
CLEAN_QUERIES = 2000
CLEAN_GENERATORS = 3  # random generators multiplied into each query's logical
CLEAN_SHAPE_SEED = 0  # fixes each query's code and box extents, whatever the run's seed


def audit_job(family, sizes):
    return f"audit:{family}:{sizes}"


def exact_job(fn, family, L):
    return f"{fn}:{family}:{L}"


def structure_job(family, L):
    return f"{family}:{L}"
