"""Embedding-free slot tagging and text classification.

Token features come from cached MinHash fingerprints scattered into counting
arrays; a small bottleneck + MLP-Mixer network trained with Adam does the
rest. No embedding tables, no string hashing at inference time.
"""

__version__ = "0.1.0"
