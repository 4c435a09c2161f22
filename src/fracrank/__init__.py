"""Relevance scoring of document corpora and fractal analysis of rank sequences."""

__version__ = "0.1.0"
