"""Under CI, hypothesis draws the same examples on every run and prints the
blob that replays a failing one (``@reproduce_failure``)."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
