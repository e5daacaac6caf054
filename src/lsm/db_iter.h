// DBIter: wraps an internal-key merging iterator and exposes user keys,
// suppressing tombstoned and superseded versions as of a read sequence.
#ifndef ACHERON_LSM_DB_ITER_H_
#define ACHERON_LSM_DB_ITER_H_

#include <atomic>
#include <cstdint>

#include "src/core/range_tombstone.h"
#include "src/lsm/dbformat.h"
#include "src/table/iterator.h"
#include "src/vlog/vlog_reader.h"

namespace acheron {

// Return a new iterator that converts internal keys (yielded by
// "*internal_iter") that were live at the specified "sequence" number into
// appropriate user keys. Takes ownership of internal_iter.
// |tombstone_skips| may be null; when set, tombstones skipped during
// iteration are counted into it. It must be an atomic: iterators run outside
// the DB mutex, concurrently with writers and with each other.
// |range_dels| (may be null) is the fragmented union of every range
// tombstone visible to this iterator's sources; ownership transfers to the
// iterator. An entry whose sequence is below a covering fragment at or
// below |sequence| is suppressed exactly like a point deletion (and counted
// as a tombstone skip).
// |vlog_readers| dereferences kTypeValuePointer entries
// (vlog::ReaderCache::Resolve): the iterator resolves the pointer when it
// accepts the entry, so value() always yields the user value. A failed
// dereference invalidates the iterator with the error in status().
Iterator* NewDBIterator(const Comparator* user_key_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        std::atomic<uint64_t>* tombstone_skips,
                        FragmentedRangeTombstoneList* range_dels,
                        vlog::ReaderCache* vlog_readers);

}  // namespace acheron

#endif  // ACHERON_LSM_DB_ITER_H_
