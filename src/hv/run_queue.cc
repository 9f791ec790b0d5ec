#include "src/hv/run_queue.h"

#include "src/sim/check.h"

namespace aql {

void RunQueue::Link(int cls, Vcpu* v, bool front) {
  AQL_CHECK(v != nullptr);
  AQL_CHECK_MSG(v->rq_owner == nullptr, "vCPU already on a run queue");
  List& list = classes_[static_cast<size_t>(cls)];
  v->rq_owner = this;
  v->rq_class = cls;
  if (front) {
    v->rq_prev = nullptr;
    v->rq_next = list.head;
    if (list.head != nullptr) {
      list.head->rq_prev = v;
    } else {
      list.tail = v;
    }
    list.head = v;
  } else {
    v->rq_next = nullptr;
    v->rq_prev = list.tail;
    if (list.tail != nullptr) {
      list.tail->rq_next = v;
    } else {
      list.head = v;
    }
    list.tail = v;
  }
  ++size_;
}

void RunQueue::Unlink(Vcpu* v) {
  List& list = classes_[static_cast<size_t>(v->rq_class)];
  if (v->rq_prev != nullptr) {
    v->rq_prev->rq_next = v->rq_next;
  } else {
    AQL_CHECK(list.head == v);
    list.head = v->rq_next;
  }
  if (v->rq_next != nullptr) {
    v->rq_next->rq_prev = v->rq_prev;
  } else {
    AQL_CHECK(list.tail == v);
    list.tail = v->rq_prev;
  }
  v->rq_prev = nullptr;
  v->rq_next = nullptr;
  v->rq_owner = nullptr;
  AQL_CHECK(size_ > 0);
  --size_;
}

void RunQueue::PushBack(Vcpu* v) {
  Link(static_cast<int>(v->priority()), v, /*front=*/false);
}

void RunQueue::PushFront(Vcpu* v) {
  Link(static_cast<int>(v->priority()), v, /*front=*/true);
}

Vcpu* RunQueue::PopBest() {
  for (const List& list : classes_) {
    if (list.head != nullptr) {
      Vcpu* v = list.head;
      Unlink(v);
      return v;
    }
  }
  return nullptr;
}

Priority RunQueue::BestPriority() const {
  for (int c = 0; c < kClasses; ++c) {
    if (classes_[static_cast<size_t>(c)].head != nullptr) {
      return static_cast<Priority>(c);
    }
  }
  AQL_CHECK_MSG(false, "BestPriority on empty queue");
}

bool RunQueue::Remove(Vcpu* v) {
  AQL_CHECK(v != nullptr);
  if (v->rq_owner != this) {
    return false;
  }
  Unlink(v);
  return true;
}

void RunQueue::Rebucket() {
  const std::array<List, kClasses> old = classes_;
  const size_t expected = size_;
  for (List& list : classes_) {
    list = List{};
  }
  size_ = 0;
  for (const List& list : old) {
    Vcpu* v = list.head;
    while (v != nullptr) {
      Vcpu* next = v->rq_next;
      // Relink at the tail of the vCPU's current class; visiting classes
      // best-first preserves relative order within each resulting class.
      v->rq_owner = nullptr;
      Link(static_cast<int>(v->priority()), v, /*front=*/false);
      v = next;
    }
  }
  AQL_CHECK(size_ == expected);
}

}  // namespace aql
