"""Test-suite settings.

``pytest --hypothesis-profile=noshrink`` runs every hypothesis phase but
the shrink: a failing example is reported as drawn, in seconds, where
shrinking a multi-program draw of ``test_sim_differential`` against the
per-PE reference can take minutes.  Without the option the default
profile checks exactly what it always has.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "noshrink", phases=[phase for phase in Phase if phase is not Phase.shrink])
