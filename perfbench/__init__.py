"""Wall-clock benchmark of DeepER serving and training (see README.md)."""
