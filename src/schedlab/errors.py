"""The package's one exception type; bad input raises ValueError."""


class ComputationError(Exception):
    """A computation that cannot finish: an LP failure, the dual-vertex or
    region-score cap, a fluid config with no growing deviation, or a slot
    kernel that cannot be built."""
