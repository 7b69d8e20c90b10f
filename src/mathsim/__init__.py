"""Similarity search over Strict Content MathML expressions.

Parses expressions into immutable trees, scores documents against queries
with a recursive structural similarity metric, evaluates rankings against
expert ground truth, and tunes the metric's parameters by generational
coordinate descent over four match-depth decay models.
"""

__version__ = "0.1.0"
