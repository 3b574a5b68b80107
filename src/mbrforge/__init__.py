"""Candidate selection and data-pipeline tooling for multi-system MT.

Modules:

* metrics    - native BLEU / chrF at sentence and corpus level
* mbr        - pairwise utility matrices and minimum-risk selection
* bridge     - line-protocol client for external scorer processes
* selftrain  - self-training / back-translation corpus builders
* checkpoint - TSF tensor container, averaging, LoRA merge, R-Drop penalty
* promptgen  - streaming / context-aware / few-shot prompt rendering
* textio     - segment files, alignment checks and staged output writes, replaced
               together except the part-way states README lists
* errors     - the exception hierarchy, its exit codes, and the @validated records
* cli        - the mbrforge command
"""

__version__ = "0.1.0"
