"""Package-wide numeric defaults."""

RANK_TOL = 1e-9  # relative eigenvalue threshold for numeric rank
COLUMN_SUM_TOL = 1e-12  # largest |column sum| taken as zero, relative to the column's sum of |q_ik|
WEIGHT_SUM_TOL = 1e-12
