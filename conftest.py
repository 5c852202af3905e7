"""Repo-root pytest configuration.

Puts the repository root on sys.path so test modules can import shared
helpers as the ``tests`` package (e.g. ``from tests.conftest import
fast_switch_config``) regardless of whether pytest is launched as
``pytest`` or ``python -m pytest``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
