"""The end-to-end benchmark's workloads and shared machinery."""
