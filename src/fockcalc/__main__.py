"""``python -m fockcalc``: the same command line as the ``fockcalc`` script."""

from .cli import main

if __name__ == "__main__":
    main()
