"""A cross-layer benchmark of the repro data-preparation stack."""
