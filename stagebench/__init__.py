"""Stage-level benchmark of ``csgcompress.pipeline.compress``.

``run.py`` is the entry point; ``scenes`` generates the seeded inputs,
``check`` verifies outputs with its own geometry code, ``replay`` re-runs
``compress`` stage by stage with spans, and ``measure`` times the rounds.
"""
