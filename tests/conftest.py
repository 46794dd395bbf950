# Keeps this directory importable so tests can share the oracles module.
from hypothesis import settings

# every run draws the same examples, so the suite does fixed work and a failure replays;
# `pytest --hypothesis-profile=default` draws random ones
settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")
