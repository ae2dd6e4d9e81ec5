"""``PYTHONPATH=src python -m benchmarks.e2e run|compare ...``"""

import sys

from .cli import main

sys.exit(main())
