"""Known-bad: process-global counters name what a run makes."""

import itertools
from itertools import count as counter

_job_ids = itertools.count(1)  # line 6: module-counter


class Channel:
    _ids = itertools.count(1)  # line 10: module-counter (class scope)
    _seqs = counter()  # line 11: module-counter (imported by name)

    def __init__(self):
        # per instance, made when the instance is: not flagged
        self._req_ids = itertools.count(1)
        self.name = f"ch-{next(Channel._ids)}"


def job_name():
    return f"job-{next(_job_ids)}"
