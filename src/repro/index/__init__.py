"""In-memory label indexing (Lucene substitute).

The paper uses a Lucene index twice: to form label blocks for row-clustering
blocking (Section 3.2) and to retrieve candidate knowledge base instances
for new detection (Section 3.4).  Both uses are recall-oriented top-k label
retrieval, which :class:`repro.index.LabelIndex` provides on top of a plain
token inverted index with IDF-weighted overlap scoring and edit-distance-1
token expansion.  Its one search path is an exact scan over every label
sharing an (expanded) query token.
"""

from repro.index.inverted import InvertedIndex
from repro.index.label_index import LabelIndex, LabelMatch

__all__ = ["InvertedIndex", "LabelIndex", "LabelMatch"]
