#!/usr/bin/env bash
# Tier-1 tests, with DeprecationWarning, RuntimeWarning and unhandled thread
# exceptions as errors: a text-mode np.fromstring that stops at malformed
# input only warns (DeprecationWarning) in some numpy versions and returns a
# truncated array, and an exception left in a thread (a training call writes
# its last files on two) only warns unless pytest itself is told otherwise.
# Extra arguments go to pytest.  Run from the repository root.
set -euo pipefail
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} exec python -W error::DeprecationWarning \
  -W error::RuntimeWarning -m pytest -W error::pytest.PytestUnhandledThreadExceptionWarning \
  -q --continue-on-collection-errors "$@"
