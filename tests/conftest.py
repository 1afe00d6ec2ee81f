from hypothesis import settings

# Deterministic examples and no example database, so a run is repeatable
# and leaves no .hypothesis/ directory behind.
settings.register_profile("goldfish", derandomize=True, database=None, deadline=None)
# The same, with more examples; select it with --hypothesis-profile=ci.
settings.register_profile("ci", settings.get_profile("goldfish"), max_examples=1000)
settings.load_profile("goldfish")
