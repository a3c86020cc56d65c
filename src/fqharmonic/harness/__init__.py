"""Configuration-driven verification harness and CLI front end."""
