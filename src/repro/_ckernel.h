/* What the compiled kernel tier's two translation units share.
 *
 * repro._ckernel is built from two C files (DESIGN.md par.10 and par.12):
 *
 *   - _ckernelmodule.c: Event / EventQueue / Simulator, SwitchCore and its
 *     thunks, the undo-log path and PyInit__ckernel;
 *   - _ckernel_protocol.c: the protocol cores (ProcessorCore,
 *     MessageSendCore, DirectoryReceiveCore, BusCore, the CCtrlCore
 *     lifecycle, TransactionCore, MemoryCompleteCore and SnoopCore).
 *
 * This header holds the struct layouts both files use, the static inline
 * heap and attribute helpers, and the declarations of what one file defines
 * and the other uses: type objects, interned-name tables and the two event
 * constructors.  Those symbols have hidden visibility, so the extension
 * still exports only PyInit__ckernel.  The SOURCE_SHA256 digest covers this
 * header and both C files (repro.kernel.source_digest).
 */

#ifndef CKERNEL_H
#define CKERNEL_H

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stddef.h>

/* A symbol defined in one file and used in the other. */
#if defined(__GNUC__)
#define CK_EXTERN extern __attribute__((visibility("hidden")))
#else
#define CK_EXTERN extern
#endif

/* ------------------------------------------------------------------ Event */

typedef struct {
    PyObject_HEAD
    long long time;
    long long seq;
    PyObject *callback;     /* NULL means None */
    PyObject *label;        /* never NULL once constructed */
    PyObject *queue;        /* owning CEventQueue, NULL means None */
    char cancelled;
} CEvent;

typedef struct {
    long long time;
    long long seq;
    CEvent *ev;             /* strong reference */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    HeapEntry *heap;
    Py_ssize_t heap_size;
    Py_ssize_t heap_cap;
    long long seq;
    Py_ssize_t live;
    long long compactions;
} CEventQueue;

typedef struct {
    PyObject_HEAD
    CEventQueue *queue;     /* strong */
    long long now;
    long long events_executed;
    char stop_requested;
} CSimulator;

CK_EXTERN PyTypeObject CSimulator_Type;

/* Defined in _ckernelmodule.c; queue_push_internal returns a new reference
 * to the scheduled event. */
CK_EXTERN CEvent *event_alloc(PyObject *callback, PyObject *label);
CK_EXTERN PyObject *queue_push_internal(CEventQueue *q, long long time,
                                        PyObject *callback, PyObject *label);

static inline int
entry_less(const HeapEntry *a, const HeapEntry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    return a->seq < b->seq;
}

/* ---- heap primitives (identical pop order to heapq on tuple keys) ---- */

static inline int
heap_reserve(CEventQueue *q)
{
    if (q->heap_size < q->heap_cap)
        return 0;
    Py_ssize_t cap = q->heap_cap ? q->heap_cap * 2 : 256;
    HeapEntry *heap = PyMem_Realloc(q->heap, (size_t)cap * sizeof(HeapEntry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    q->heap = heap;
    q->heap_cap = cap;
    return 0;
}

static inline void
heap_bubble_up(HeapEntry *heap, Py_ssize_t pos)
{
    HeapEntry item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (entry_less(&item, &heap[parent])) {
            heap[pos] = heap[parent];
            pos = parent;
        }
        else
            break;
    }
    heap[pos] = item;
}

static inline void
heap_bubble_down(HeapEntry *heap, Py_ssize_t size, Py_ssize_t pos)
{
    HeapEntry item = heap[pos];
    Py_ssize_t child;
    while ((child = 2 * pos + 1) < size) {
        if (child + 1 < size && entry_less(&heap[child + 1], &heap[child]))
            child++;
        if (entry_less(&heap[child], &item)) {
            heap[pos] = heap[child];
            pos = child;
        }
        else
            break;
    }
    heap[pos] = item;
}

/* Push an entry; steals the caller's reference to entry.ev. */
static inline int
heap_push_entry(CEventQueue *q, HeapEntry entry)
{
    if (heap_reserve(q) < 0) {
        Py_DECREF(entry.ev);
        return -1;
    }
    q->heap[q->heap_size++] = entry;
    heap_bubble_up(q->heap, q->heap_size - 1);
    return 0;
}

/* Queue `ev` at the key (time, seq).  The event must not be queued
 * already. */
static inline int
queue_push_keyed(CEventQueue *q, CEvent *ev, long long time, long long seq)
{
    ev->time = time;
    ev->seq = seq;
    ev->cancelled = 0;
    Py_INCREF(q);
    Py_XSETREF(ev->queue, (PyObject *)q);
    HeapEntry entry = {time, seq, ev};
    Py_INCREF(ev);
    if (heap_push_entry(q, entry) < 0)
        return -1;
    q->live++;
    return 0;
}

/* Queue `ev` at absolute cycle `time` under the queue's next seq, as
 * EventQueue.push_static does: the one push path for the permanent events
 * their owners re-queue (switch scans, bus arbitration) and for the fresh
 * events of queue_push_internal.  The event must not be queued already. */
static inline int
queue_push_static_internal(CEventQueue *q, CEvent *ev, long long time)
{
    return queue_push_keyed(q, ev, time, q->seq++);
}

/* Pop the root; the caller owns the returned entry's event reference.
 * Must only be called with heap_size > 0. */
static inline HeapEntry
heap_pop_root(CEventQueue *q)
{
    HeapEntry root = q->heap[0];
    q->heap_size--;
    if (q->heap_size > 0) {
        q->heap[0] = q->heap[q->heap_size];
        heap_bubble_down(q->heap, q->heap_size, 0);
    }
    return root;
}

/* ------------------------------------------------ interned-name tables */

/* Each table is defined by the file whose code uses it (S: the switch core,
 * which the protocol cores share; PS, TS, SN: the protocol file) and filled
 * by PyInit__ckernel. */

/* Interned attribute names used on the hot paths. */
struct switch_names {
    PyObject *reserved, *name, *busy_until, *busy_cycles, *hops, *dst, *src,
        *vnet, *size_bytes, *value, *flush_epoch, *messages_forwarded,
        *c_injected, *c_ejected, *c_forwarded, *queue_attr, *popleft,
        *append, *core_attr, *capacity_attr, *latency_cycles_attr,
        *delivered_at, *injected_at, *messages_delivered,
        *total_message_latency, *receive, *ordering, *deliver_label,
        *squashed_net, *delivered_name, *reordered_name, *send_seq_name,
        *max_delivered_seq;
};

CK_EXTERN struct switch_names S;

/* Interned attribute names used by the protocol-path cores. */
struct protocol_names {
    PyObject *issue_pending, *waiting, *stalled_until, *stream_index,
        *references, *retired_instructions, *store_counter,
        *references_completed, *state, *hits, *store_value_hook,
        *l1_hits, *gap, *next_send_seq, *send_seq,
        *messages_sent, *sent_name, *msg_class, *payload, *address,
        *requests_ordered, *busy, *requests_issued,
        *arb_label, *snoop_label;
};

CK_EXTERN struct protocol_names PS;

/* Interned attribute names used by the controller/memory-complete cores. */
struct ctrl_names {
    PyObject *transaction, *timeout_cycles, *pending_request,
        *pending_on_complete, *data_received, *acks_needed, *acks_received,
        *acks_expected, *completed, *on_complete_attr, *timeout_event,
        *txn_id, *op, *tick, *last_used, *misses, *evictions,
        *cancel, *load_hits, *store_hits, *load_misses,
        *store_misses, *transactions_issued, *transactions_completed,
        *stale_data, *duplicate_data, *stale_acks, *memory_references,
        *value_hint;
};

CK_EXTERN struct ctrl_names TS;

/* Interned attribute names used by the snooping core. */
struct snoop_names {
    PyObject *requestor, *rtype, *bus_ordered, *invalidate_on_install,
        *own_request_ordered, *cache_to_cache_transfers, *stale_data,
        *duplicate_data;
};

CK_EXTERN struct snoop_names SN;

/* ---- small attribute helpers (interned-name get/set of C integers) ---- */

static inline int
getattr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    return 0;
}

static inline int
setattr_ll(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static inline int
addattr_ll(PyObject *obj, PyObject *name, long long delta)
{
    long long v;
    if (getattr_ll(obj, name, &v) < 0)
        return -1;
    return setattr_ll(obj, name, v + delta);
}

/* counter.value += n (Counter stores a plain int attribute) */
static inline int
counter_add(PyObject *counter, long long n)
{
    return addattr_ll(counter, S.value, n);
}

/* ------------------------------------- protocol types (_ckernel_protocol.c) */

CK_EXTERN PyTypeObject CProcCore_Type;
CK_EXTERN PyTypeObject CSendCore_Type;
CK_EXTERN PyTypeObject CRecvCore_Type;
CK_EXTERN PyTypeObject CBusCore_Type;
CK_EXTERN PyTypeObject CBusSnoopThunk_Type;
CK_EXTERN PyTypeObject CFinishThunk_Type;
CK_EXTERN PyTypeObject CTimeoutThunk_Type;
CK_EXTERN PyTypeObject CTxnCore_Type;
CK_EXTERN PyTypeObject CMemCore_Type;
CK_EXTERN PyTypeObject CSnoopCore_Type;
CK_EXTERN PyTypeObject CSupplyThunk_Type;
CK_EXTERN PyTypeObject CSnoopRecvThunk_Type;

#endif /* CKERNEL_H */
