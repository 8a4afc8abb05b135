"""Test-suite settings: every Hypothesis failure prints the blob that
reproduces it (@reproduce_failure), so a failing draw can be replayed
without the local example database (.hypothesis/, not kept in git)."""

from hypothesis import settings

settings.register_profile("wglab", print_blob=True)
settings.load_profile("wglab")
