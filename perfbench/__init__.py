"""Host-CPU benchmark of the ALPHA reproduction (see README.md)."""
