// dnsctx — bytes the process has allocated and not yet freed, for tests
// that bound a component's memory.
//
// glibc only (mallinfo2, glibc 2.33+): DNSCTX_HAVE_HEAP_IN_USE is defined
// where it exists. A sanitizer's allocator bypasses glibc's, so under one
// the figure does not move; tests skip when it stays flat.
#pragma once

#include <cstddef>

#if defined(__GLIBC__) && (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define DNSCTX_HAVE_HEAP_IN_USE 1

namespace dnsctx::testutil {

/// In-use bytes of glibc's arenas plus its mmapped chunks.
inline std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

}  // namespace dnsctx::testutil
#endif
