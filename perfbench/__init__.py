"""End-to-end and per-layer benchmark for alghull; see README.md."""
