"""Legacy setuptools entry point; all metadata lives in ``setup.cfg``.

Kept for offline environments without the ``wheel`` package: pip's
editable install (PEP 660) needs it, ``python setup.py develop`` does not.
"""

from setuptools import setup

setup()
