"""Suite-wide pytest configuration.

Loads the :mod:`repro.check` plan-verification plugin: every plan lowered
anywhere in the suite is statically verified against the structural rules
(disable with ``--no-plan-verify``).

Registers a hypothesis ``ci`` profile, loaded when the ``CI`` environment
variable is set: a failing property test then prints its
``@reproduce_failure`` blob, so a counterexample found on a CI runner can
be replayed locally and pinned with ``@example``. It changes no example
count or deadline.
"""

import os

from hypothesis import settings

pytest_plugins = ["repro.check.pytest_plugin"]

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
