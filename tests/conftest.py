"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which draws the
same examples on every run, so a failure in CI reproduces locally with
the same setting.  Without it the default profile applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
