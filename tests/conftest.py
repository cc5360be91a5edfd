"""The one hypothesis profile of the suite: every property test runs a fixed set of examples.

``derandomize`` draws each test's examples from a hash of the test, so every run checks the
same inputs and keeps no example database; ``deadline=None`` lets an example take as long as
it needs.  A test's ``@settings`` sets only its ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("steerkit", derandomize=True, deadline=None)
settings.load_profile("steerkit")
