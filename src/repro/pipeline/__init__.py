"""The online serving facade.

:class:`~repro.pipeline.session.ResolutionSession` serves single-page
online traffic against a fitted model; the batch passes over a whole
collection are ``EntityResolver.fit`` and ``ResolverModel.predict`` /
``evaluate`` (see ``docs/pipeline.md``).
"""

from repro.pipeline.session import ResolutionSession, SessionStats

__all__ = ["ResolutionSession", "SessionStats"]
