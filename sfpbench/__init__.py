"""The SFP benchmark (see README.md)."""
