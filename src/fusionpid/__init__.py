"""Convert multimodal annotations into redundancy/uniqueness/synergy values."""

__version__ = "0.1.0"
