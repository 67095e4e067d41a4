"""End-to-end and per-layer benchmark of the repro pipeline (see NOTES.md)."""
