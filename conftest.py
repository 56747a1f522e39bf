"""Test-session settings shared by ``tests`` and ``bench``.

The suite writes no bytecode, neither in this process nor in the Python
subprocesses it starts, so a test run leaves no ``__pycache__`` under
``src`` or ``bench``: whether one exists changes the bench's cold-start
``setup_s`` and ``peak_rss_mb``.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
