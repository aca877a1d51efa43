"""Layer-attributed benchmark of the DEUCE simulator (see README.md)."""
