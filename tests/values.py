"""Copies of dualkit values with some fields changed, for the tests that
corrupt a trace, a certificate or a group.  dualkit's values carry the
field table that ``dataclasses.replace`` reads, which the benchmark
needs, so the tests use that one implementation too; a dualkit without
the table would rebuild the value through its ``__init__`` here."""

from dataclasses import replace  # noqa: F401
