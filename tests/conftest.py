# Keeps this directory importable so tests can share the oracles module.
from hypothesis import settings

# Two profiles, neither with a deadline. `fixed`, loaded here, draws the same examples on
# every run, so the suite does fixed work and a failure replays. `pytest -m hypothesis
# --hypothesis-profile=fresh tests` runs every property test on new random examples and
# prints a failure's `@reproduce_failure` blob. Both name `default` as their parent: with
# `CI` set, Hypothesis makes its `ci` profile the active one, and a profile registered
# without a parent would inherit its `derandomize=True`.
settings.register_profile("fixed", settings.get_profile("default"), deadline=None, derandomize=True)
settings.register_profile("fresh", settings.get_profile("default"), deadline=None, print_blob=True)
settings.load_profile("fixed")
