import sys

from benchmarks.ledger.run import main

sys.exit(main())
