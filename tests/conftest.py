"""Hypothesis profiles.

The ci profile draws a fixed sequence of examples and prints the blob
that reproduces a failure. It is loaded when HYPOTHESIS_PROFILE names it;
local runs keep hypothesis's random exploration.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
