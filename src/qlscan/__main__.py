"""``python -m qlscan``: the ``qlscan`` command."""

from .cli import main

if __name__ == "__main__":
    main()
