from hypothesis import settings

# Deterministic examples and no example database, so a run is repeatable
# and leaves no .hypothesis/ directory behind.
settings.register_profile("goldfish", derandomize=True, database=None, deadline=None)
settings.load_profile("goldfish")
